package attack

import (
	"strings"
	"sync"
	"testing"

	"emtrust/internal/chip"
	"emtrust/internal/frand"
)

var testKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

var (
	victimOnce sync.Once
	victimChip *chip.Chip
	victimErr  error
)

func victim(t testing.TB) *chip.Chip {
	t.Helper()
	victimOnce.Do(func() {
		cfg := chip.DefaultConfig()
		cfg.WithTrojans = false
		cfg.WithA2 = false
		victimChip, victimErr = chip.New(cfg)
	})
	if victimErr != nil {
		t.Fatal(victimErr)
	}
	return victimChip
}

func TestHypothesisModels(t *testing.T) {
	// The models must differ and respond to the input.
	models := []string{"load", "sbox", "combined", "profiled"}
	for _, m := range models {
		if hypothesis(m, 0x00, 0x00) != 0 {
			t.Errorf("model %s: zero transition should leak nothing", m)
		}
		varies := false
		base := hypothesis(m, 0x01, 0x00)
		for p := 2; p < 256; p++ {
			if hypothesis(m, byte(p), 0x00) != base {
				varies = true
				break
			}
		}
		if !varies {
			t.Errorf("model %s is constant", m)
		}
	}
	// XOR structure: hypothesis(p, k) depends only on p^k.
	if hypothesis("profiled", 0xAB, 0xCD) != hypothesis("profiled", 0xAB^0xCD, 0) {
		t.Error("hypothesis must be a function of p^k")
	}
}

func TestRunValidation(t *testing.T) {
	c := victim(t)
	rng := frand.NewRand(1)
	if _, err := Run(c, make([]byte, 8), DefaultCPAConfig(), rng); err == nil {
		t.Fatal("short key must error")
	}
	bad := DefaultCPAConfig()
	bad.Traces = 2
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("tiny trace budget must error")
	}
	bad = DefaultCPAConfig()
	bad.WindowEnd = bad.WindowStart
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("empty window must error")
	}
	bad = DefaultCPAConfig()
	bad.Traces = 20
	bad.WindowEnd = 10000
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("oversized window must error")
	}
}

// TestCPARecoversKey mounts the profiled attack with a reduced trace
// budget; most of the key must come out.
func TestCPARecoversKey(t *testing.T) {
	if testing.Short() {
		t.Skip("CPA needs thousands of simulated captures")
	}
	c := victim(t)
	cfg := DefaultCPAConfig()
	cfg.Traces = 2000
	res, err := Run(c, testKey, cfg, frand.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	correct := res.Evaluate(testKey)
	t.Logf("recovered %d/16 key bytes at %d traces", correct, cfg.Traces)
	if correct < 12 {
		t.Fatalf("only %d/16 key bytes recovered", correct)
	}
	for b, br := range res.Bytes {
		if br.Correlation <= 0 {
			t.Errorf("byte %d: non-positive correlation", b)
		}
	}
	if !strings.Contains(res.String(), "16 bytes") && !strings.Contains(res.String(), "/16") {
		t.Error("rendering broken")
	}
}

// TestRunReproducible runs the attack twice with equal seeds on one
// chip: every plaintext and every noise sample comes from rng, so the
// results must be identical, whatever ran on the chip before.
func TestRunReproducible(t *testing.T) {
	c := victim(t)
	cfg := DefaultCPAConfig()
	cfg.Traces = 64
	first, err := Run(c, testKey, cfg, frand.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(c, testKey, cfg, frand.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("equal seeds, different results:\n%+v\n%+v", first.Bytes, second.Bytes)
	}
}

// The analytic (unprofiled) models must do strictly worse than the
// profiled template — that gap is the point of shipping the profile.
// Both runs draw the same seed, so they score identical traces and the
// comparison is a paired one.
func TestProfiledBeatsAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("CPA needs thousands of simulated captures")
	}
	c := victim(t)
	run := func(model string) int {
		cfg := DefaultCPAConfig()
		cfg.Traces = 1200
		cfg.Model = model
		res, err := Run(c, testKey, cfg, frand.NewRand(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Evaluate(testKey)
	}
	analytic := run("combined")
	profiled := run("profiled")
	t.Logf("combined model: %d/16, profiled: %d/16 (1200 traces)", analytic, profiled)
	if profiled <= analytic {
		t.Fatalf("profiled (%d) must beat the analytic model (%d)", profiled, analytic)
	}
}
