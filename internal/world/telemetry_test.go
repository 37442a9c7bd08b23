package world

import (
	"testing"

	"lockss/internal/telemetry"
)

// telemetryRun executes cfg with a fresh telemetry recorder attached and
// returns the run's fingerprint plus every histogram family's snapshot.
func telemetryRun(t *testing.T, cfg Config) (worldFingerprint, map[string]telemetry.Snapshot) {
	t.Helper()
	tel := telemetry.New()
	cfg.Telemetry = tel
	fp, _ := fingerprintRun(t, cfg, Churn{})
	snaps := make(map[string]telemetry.Snapshot)
	for _, h := range tel.Histograms() {
		snaps[h.Name] = h.H.Snapshot()
	}
	return fp, snaps
}

// TestTelemetryDeterministic pins the sim-side telemetry contract: attaching
// a recorder does not perturb the simulation (the fingerprint matches a
// telemetry-free run bit for bit), and the histograms it records are fed
// from virtual time, so a second run records identical snapshots.
func TestTelemetryDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Peers = 24
	cfg.DamageDiskYears = 1

	bare, _ := fingerprintRun(t, cfg, Churn{})
	ref, refSnaps := telemetryRun(t, cfg)
	if ref != bare {
		t.Errorf("telemetry perturbed the run:\n with %+v\n bare %+v", ref, bare)
	}
	if pd := refSnaps["poll_duration"]; pd.Count == 0 || pd.Sum <= 0 {
		t.Fatalf("no poll durations recorded: %+v", pd)
	}
	if sv := refSnaps["solicit_vote"]; sv.Count == 0 {
		t.Errorf("no solicitation→vote latencies recorded: %+v", sv)
	}

	got, gotSnaps := telemetryRun(t, cfg)
	if got != ref {
		t.Errorf("rerun fingerprint mismatch:\n got %+v\nwant %+v", got, ref)
	}
	if len(gotSnaps) != len(refSnaps) {
		t.Errorf("rerun recorded %d histograms, want %d", len(gotSnaps), len(refSnaps))
	}
	for name, want := range refSnaps {
		if gotSnaps[name] != want {
			t.Errorf("rerun: %s histogram differs:\n got %+v\nwant %+v", name, gotSnaps[name], want)
		}
	}
}
