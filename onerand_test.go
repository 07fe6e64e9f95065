package emtrust_test

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// TestOnlyFrandImportsMathRand keeps one generator type in production.
// Every draw comes from a caller-owned *frand.Rand, which reproduces
// math/rand's streams bit for bit, so no non-test Go file of this
// module outside internal/frand imports math/rand. Tests may: they
// check frand and the acquisition paths against math/rand as an
// oracle. perfbench is a module of its own and is not checked.
func TestOnlyFrandImportsMathRand(t *testing.T) {
	m, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, p := range m.pkgs {
		if p.path == m.path+"/internal/frand" || nestedModule(m.root, p.dir) {
			continue
		}
		for _, f := range p.prod {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
					rel, _ := filepath.Rel(m.root, m.fset.Position(f.Package).Filename)
					bad = append(bad, rel)
				}
			}
		}
	}
	sort.Strings(bad)
	for _, f := range bad {
		t.Errorf("%s imports math/rand; draw from a *frand.Rand instead", f)
	}
}

// nestedModule reports whether dir, a directory under root, lies in a
// module of its own: it or a directory between it and root holds a
// go.mod.
func nestedModule(root, dir string) bool {
	for ; dir != root && len(dir) > len(root); dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return true
		}
	}
	return false
}
