package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	icmm "cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
)

// recordCMMA records a short CMM-a trace on the 8-core mix of seed 1.
func recordCMMA(t *testing.T) *decideTrace {
	t.Helper()
	spec := traceSpec{"cmm-a", 0, func() (icmm.Policy, error) {
		return &icmm.Coordinated{Variant: icmm.VariantA}, nil
	}, 8, 1, 2}
	tr, err := recordTrace(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replayOnce replays every epoch of tr once and returns the checks made.
func replayOnce(t *testing.T, tr *decideTrace) outcome {
	t.Helper()
	var out outcome
	rt := newReplayTarget(tr)
	ctrl, err := icmm.NewController(tr.cfg, rt, tr.policy.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for e := range tr.epochs {
		rt.startEpoch(e)
		err := ctrl.RunEpochs(1)
		if err == nil {
			err = rt.checkEpoch(e, ctrl.LastDecision())
		}
		out.check(err)
	}
	return out
}

func TestReplayReproducesRecording(t *testing.T) {
	tr := recordCMMA(t)
	if out := replayOnce(t, tr); out.failed != 0 || out.attempted != int64(len(tr.epochs)) {
		t.Fatalf("clean replay: %d of %d epochs failed", out.failed, out.attempted)
	}
}

// TestReplayFailsOnPerturbedPMU perturbs one counter of the first
// probe-interval reading: the replayed decision must be reported as
// failed, not timed as a success.
func TestReplayFailsOnPerturbedPMU(t *testing.T) {
	tr := recordCMMA(t)
	calls := tr.epochs[0].calls
	// The first 2n PMU reads bracket the execution epoch; the next 2n the
	// all-on probe interval that detection reads.
	seen := 0
	for i := range calls {
		if calls[i].kind != callPMU {
			continue
		}
		if seen++; seen == 3*tr.cores+1 {
			var c pmu.Counters
			for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
				c.Add(ev, calls[i].snap.Value(ev))
			}
			c.Add(pmu.Instructions, 1000)
			calls[i].snap = c.Snapshot()
			break
		}
	}
	if out := replayOnce(t, tr); out.failed == 0 {
		t.Fatal("replay of a perturbed PMU value passed its check")
	}
	// In the measured loop the wrong epoch is counted, and left out of
	// the decide times.
	var out outcome
	st := replay([]*decideTrace{tr}, time.Millisecond, rand.New(rand.NewSource(1)), nil, -1, &out)
	passes := out.attempted / int64(len(tr.epochs))
	if out.failed < passes || st.epochs != int(out.attempted-out.failed) || len(st.decide["cmm-a"]) != st.epochs {
		t.Fatalf("perturbed replay: %d of %d epochs failed, %d timed", out.failed, out.attempted, st.epochs)
	}
}

// TestReplayFailsOnMSRState changes one recorded MSR read; the register
// written back from it must differ from the recorded end-of-epoch state.
func TestReplayFailsOnMSRState(t *testing.T) {
	tr := recordCMMA(t)
	for e := range tr.epochs {
		for i, c := range tr.epochs[e].calls {
			if c.kind == callReadMSR {
				tr.epochs[e].calls[i].val ^= 1
				if out := replayOnce(t, tr); out.failed == 0 {
					t.Fatal("replay with a changed MSR read passed its check")
				}
				return
			}
		}
	}
	t.Skip("trace reads no MSR")
}

// goldenComparison rebuilds a Comparison carrying the golden results.
func goldenComparison(t *testing.T, g fig13Golden) *experiments.Comparison {
	t.Helper()
	comp := &experiments.Comparison{Policies: g.Policies, Results: map[string][]experiments.MixResult{}}
	for _, n := range g.Mixes {
		comp.Mixes = append(comp.Mixes, mixes.Mix{Name: n})
	}
	for p, rs := range g.Results {
		comp.Results[p] = append([]experiments.MixResult(nil), rs...)
	}
	return comp
}

func TestFig13CheckFailsOnFlippedBit(t *testing.T) {
	g, err := loadGolden(goldenPath(".."))
	if err != nil {
		t.Fatal(err)
	}
	var ok outcome
	checkFig13(goldenComparison(t, g), g, &ok)
	if ok.failed != 0 || ok.attempted == 0 {
		t.Fatalf("golden against itself: %d of %d checks failed", ok.failed, ok.attempted)
	}
	comp := goldenComparison(t, g)
	r := &comp.Results["CMM-a"][2]
	r.NormHS = math.Float64frombits(math.Float64bits(r.NormHS) ^ 1)
	var bad outcome
	checkFig13(comp, g, &bad)
	if bad.failed == 0 {
		t.Fatal("a flipped bit in one NormHS passed the golden check")
	}
}

func TestReadCheckFailsOnFlippedByte(t *testing.T) {
	body := []byte(`{"policies":["PT"]}`)
	sum := sha256.Sum256(body)
	hash := strings.Repeat("ab", 32)
	digests := map[string][]byte{hash: sum[:]}
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}}
	resp.Header.Set("ETag", `"`+hash+`"`)
	resp.Header.Set("X-Result-Hash", hash)
	op := readOp{hash: hash, status: http.StatusOK}
	if err := checkRead(op, resp, body, digests); err != nil {
		t.Fatalf("intact body: %v", err)
	}
	flipped := append([]byte(nil), body...)
	flipped[3] ^= 0x20
	if checkRead(op, resp, flipped, digests) == nil {
		t.Fatal("a body with one byte flipped passed the read check")
	}
	resp.Header.Set("ETag", `"other"`)
	if checkRead(op, resp, body, digests) == nil {
		t.Fatal("a wrong ETag passed the read check")
	}
	if checkRead(readOp{hash: hash, status: http.StatusNotModified}, resp, nil, digests) == nil {
		t.Fatal("a 200 where 304 was due passed the read check")
	}
}

// TestReadMixShares pins the read mix to cmmload's 4:2:1 phase shares.
func TestReadMixShares(t *testing.T) {
	m := newReadMix(1, []string{"a", "b", "c"})
	const draws = 70000
	n := map[int]int{}
	for i := 0; i < draws; i++ {
		n[m.next().status]++
	}
	for status, want := range map[int]float64{http.StatusOK: 4.0 / 7, http.StatusNotModified: 2.0 / 7, http.StatusNotFound: 1.0 / 7} {
		if got := float64(n[status]) / draws; math.Abs(got-want) > 0.01 {
			t.Errorf("status %d: share %.3f, want %.3f", status, got, want)
		}
	}
}

func TestCheckClientsRefusesOversubscription(t *testing.T) {
	if err := checkClients(2, 2); err != nil {
		t.Fatal(err)
	}
	if checkClients(3, 2) == nil {
		t.Fatal("3 clients on 2 CPUs were accepted")
	}
	if checkClients(0, 2) == nil {
		t.Fatal("0 clients were accepted")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	if !reflect.DeepEqual(jobConfigs(7, 3), jobConfigs(7, 3)) {
		t.Fatal("job configurations differ for one seed")
	}
	if reflect.DeepEqual(jobConfigs(7, 3), jobConfigs(8, 3)) {
		t.Fatal("job configurations ignore the seed")
	}
	name := func(ps []icmm.Policy) (out []string) {
		for _, p := range ps {
			out = append(out, p.Name())
		}
		return out
	}
	if !reflect.DeepEqual(name(fig13Policies(3)), name(fig13Policies(3))) {
		t.Fatal("fig13 policy order differs for one seed")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	got := covered([][2]int64{{0, 10}, {5, 15}, {20, 30}, {22, 25}}, 0, 28)
	if got != 23 {
		t.Fatalf("covered = %d, want 23", got)
	}
}
