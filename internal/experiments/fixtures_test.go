package experiments

import (
	"sync"
	"testing"
)

// The expensive experiments run once per test binary. The tests that
// assert on an experiment read its fixture, and TestWriteHTMLReport
// renders every fixture that owns a page section, so no two tests
// compute the same result; the first test to read a fixture pays for
// it.
var (
	table1Fixture       = sync.OnceValues(func() (*Table1Result, error) { return Table1(testConfig()) })
	snrSimFixture       = sync.OnceValues(func() (*SNRResult, error) { return SNRSimulation(testConfig()) })
	snrMeasuredFixture  = sync.OnceValues(func() (*SNRResult, error) { return SNRMeasured(testConfig()) })
	a2Fixture           = sync.OnceValues(func() (*A2SpectrumResult, error) { return A2Spectrum(testConfig()) })
	fig6ProbeFixture    = sync.OnceValues(func() (*HistogramsResult, error) { return Fig6Histograms(testConfig(), false) })
	fig6SensorFixture   = sync.OnceValues(func() (*HistogramsResult, error) { return Fig6Histograms(testConfig(), true) })
	fig6SpectraFixture  = sync.OnceValues(func() (*SpectraResult, error) { return Fig6Spectra(testConfig()) })
	degradationFixture  = sync.OnceValues(func() (*DegradationResult, error) { return Degradation(testConfig()) })
	localizationFixture = sync.OnceValues(func() (*LocalizationResult, error) { return Localization(testConfig()) })
	fleetFixture        = sync.OnceValues(func() (*FleetResult, error) { return Fleet(testConfig()) })
	campaignFixture     = sync.OnceValues(func() (*CampaignResult, error) { return Campaign(campaignAcceptanceConfig()) })
)

// campaignAcceptanceConfig is the full default campaign on a reduced
// trace budget (TestCampaignAcceptance's configuration).
func campaignAcceptanceConfig() Config {
	cfg := DefaultConfig()
	cfg.GoldenTraces = 20
	cfg.TestTraces = 16
	return cfg
}

// fixture returns a fixture's result and fails the test on its error.
func fixture[T any](t *testing.T, f func() (T, error)) T {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return res
}
