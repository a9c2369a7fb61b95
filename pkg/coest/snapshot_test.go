package coest_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecache"
	"repro/internal/telemetry"
	"repro/pkg/coest"
)

// TestSnapshotRoundTrip is the portable-warmth contract: a session restored
// from a snapshot produces bit-identical reports to the origin session with
// zero compilation, synthesis or characterization, and carries the learned
// energy-cache paths with it.
func TestSnapshotRoundTrip(t *testing.T) {
	sys := coest.TCPIP(quickTCPIP())
	origin, err := coest.NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := origin.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the origin's energy cache so the snapshot carries learned paths.
	if _, err := origin.Estimate(ctx, coest.WithEnergyCache()); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Estimate(ctx, coest.WithEnergyCache()); err != nil {
		t.Fatal(err)
	}
	if origin.SnapshotPaths() == 0 {
		t.Fatal("origin session learned no cache paths")
	}

	var buf bytes.Buffer
	if err := origin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	sw := telemetry.Default.Counter("coest_sw_compiles_total", "")
	hw := telemetry.Default.Counter("coest_hw_syntheses_total", "")
	macro := telemetry.Default.Counter("coest_macro_characterizations_total", "")
	sw0, hw0, macro0 := sw.Value(), hw.Value(), macro.Value()

	restored, err := coest.RestoreSession(coest.TCPIP(quickTCPIP()), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Value() != sw0 || hw.Value() != hw0 || macro.Value() != macro0 {
		t.Fatalf("restore was not warm: compiles %d->%d syntheses %d->%d characterizations %d->%d",
			sw0, sw.Value(), hw0, hw.Value(), macro0, macro.Value())
	}
	if got.Total != want.Total || got.SWEnergy != want.SWEnergy ||
		got.HWEnergy != want.HWEnergy || got.SimulatedTime != want.SimulatedTime {
		t.Fatalf("restored report differs: got %v/%v/%v/%v want %v/%v/%v/%v",
			got.Total, got.SWEnergy, got.HWEnergy, got.SimulatedTime,
			want.Total, want.SWEnergy, want.HWEnergy, want.SimulatedTime)
	}
	if restored.SnapshotPaths() != origin.SnapshotPaths() {
		t.Fatalf("restored %d cache paths, origin has %d", restored.SnapshotPaths(), origin.SnapshotPaths())
	}
}

// legacySnap is the session snapshot payload as earlier builds wrote it:
// today's fields plus the name of the session's estimator backend.
type legacySnap struct {
	Backend   string
	Artifacts core.ArtifactsState
	Caches    []legacyCacheSnap
}

type legacyCacheSnap struct {
	Params coest.ECacheParams
	SW, HW []ecache.PathStat
}

// TestSnapshotLegacyBackendField: a snapshot in the old layout, naming the
// packed64 backend, restores and estimates bit-identically to its origin.
func TestSnapshotLegacyBackendField(t *testing.T) {
	ctx := context.Background()
	origin, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Estimate(ctx, coest.WithEnergyCache()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := origin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const hdr = 10 // magic + format version
	raw := buf.Bytes()
	var snap legacySnap
	if err := gob.NewDecoder(bytes.NewReader(raw[hdr:])).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Backend = "packed64"
	var old bytes.Buffer
	old.Write(raw[:hdr])
	if err := gob.NewEncoder(&old).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old.Bytes(), []byte("packed64")) {
		t.Fatal("legacy payload does not carry the backend name")
	}

	restored, err := coest.RestoreSession(coest.TCPIP(quickTCPIP()), &old)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SnapshotPaths() != origin.SnapshotPaths() {
		t.Fatalf("restored %d cache paths, origin has %d", restored.SnapshotPaths(), origin.SnapshotPaths())
	}
	for _, opts := range [][]coest.Option{nil, {coest.WithEnergyCache()}} {
		want, err := origin.Estimate(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Estimate(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total != want.Total || got.SWEnergy != want.SWEnergy || got.HWEnergy != want.HWEnergy ||
			got.BusEnergy != want.BusEnergy || got.SimulatedTime != want.SimulatedTime ||
			got.ISSCalls != want.ISSCalls || got.ISSInsts != want.ISSInsts || got.GateExecs != want.GateExecs {
			t.Fatalf("restored report differs (%d options):\n got %v %v %v %v %v %d %d %d\nwant %v %v %v %v %v %d %d %d",
				len(opts),
				got.Total, got.SWEnergy, got.HWEnergy, got.BusEnergy, got.SimulatedTime, got.ISSCalls, got.ISSInsts, got.GateExecs,
				want.Total, want.SWEnergy, want.HWEnergy, want.BusEnergy, want.SimulatedTime, want.ISSCalls, want.ISSInsts, want.GateExecs)
		}
	}
}

// TestSnapshotRejectsWrongDesign: restoring a snapshot against a different
// design must fail loudly, not mis-bind artifacts.
func TestSnapshotRejectsWrongDesign(t *testing.T) {
	origin, err := coest.NewSession(coest.TCPIP(quickTCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := origin.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := coest.RestoreSession(coest.ProdCons(coest.DefaultProdConsParams()), bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore against a different design succeeded")
	}
	if _, err := coest.RestoreSession(coest.TCPIP(quickTCPIP()), strings.NewReader("not a snapshot at all, definitely")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
}
