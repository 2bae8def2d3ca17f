package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"cmm/internal/cmm"
	"cmm/internal/mixes"
	"cmm/internal/runstore"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
	"cmm/internal/workload"
)

// StoreSchema versions the run-store key space. Bump it whenever the
// meaning of a cached result changes without any keyed input changing —
// e.g. a simulator bugfix, a new scored field, or a semantic change to a
// policy that keeps its name. Every key embeds the version, so a bump
// invalidates the whole store at once (old entries are simply never
// addressed again; the files stay on disk until cleaned up).
//
// v2: cmm.Config gained the MBA level grid (MBALevels, MBASampleBudget)
// and cmm.DecisionStats gained MBAChanges; cached DecisionStats from v1
// would silently report zero MBA changes for the CBP policies.
//
// v3: sim.Config gained Topology (NUMA geometry) and cmm.Config gained
// ComboRefreshEpochs; policyRun gained the per-node NodeBytes breakdown
// and its Bytes field now sums every node controller. v2 entries predate
// node-aggregated bandwidth and would fail the scoring node-count check.
const StoreSchema = 3

// policyKey is everything that determines one (mix, policy, seed)
// controller run's policyRun result. Observation-only options (Telemetry,
// Progress), execution-shape options (Workers, Context) and the store
// itself are deliberately absent: they never change the simulated cycles.
type policyKey struct {
	Schema                    int
	Kind                      string
	Sim                       sim.Config
	CMM                       cmm.Config
	WarmEpochs, MeasureEpochs int
	Mix                       string
	Specs                     []workload.Spec
	Policy                    string
	Seed                      int64
}

// jobKey is everything that determines one whole job-level result payload
// (a full comparison, characterisation, or fig3 run) — the key space the
// HTTP read path serves from. Like policyKey, it deliberately excludes
// observation options (Telemetry, Progress) and execution shape (Workers,
// Context, Store): they never change the produced bytes.
type jobKey struct {
	Schema                            int
	Kind                              string
	Sim                               sim.Config
	CMM                               cmm.Config
	Cores                             int
	WarmEpochs, MeasureEpochs         int
	SoloWarmCycles, SoloMeasureCycles uint64
	Seeds                             []int64
	MixesPerCategory                  int
	BaseSeed                          int64
	Policies                          []string
}

// JobKey returns the content-address of a whole job's result: the store
// key under which the serving tier memoizes (and the read path looks up)
// the canonical result bytes for kind run with these options. policies
// lists the policy names in run order for comparison jobs and must be nil
// for kinds whose output does not depend on policies (characterize, fig3),
// so semantically identical requests hash identically.
func JobKey(kind string, o Options, policies []string) (string, error) {
	return runstore.Hash(jobKey{
		Schema:            StoreSchema,
		Kind:              "job/" + kind,
		Sim:               o.Sim,
		CMM:               o.CMM,
		Cores:             o.Cores,
		WarmEpochs:        o.WarmEpochs,
		MeasureEpochs:     o.MeasureEpochs,
		SoloWarmCycles:    o.SoloWarmCycles,
		SoloMeasureCycles: o.SoloMeasureCycles,
		Seeds:             o.Seeds,
		MixesPerCategory:  o.MixesPerCategory,
		BaseSeed:          o.BaseSeed,
		Policies:          policies,
	})
}

// soloKey is everything that determines one solo characterisation run.
type soloKey struct {
	Schema                 int
	Kind                   string
	Sim                    sim.Config
	WarmCycles, MeasCycles uint64
	Spec                   workload.Spec
	Seed                   int64
	MSR                    uint64
	Ways                   int
}

func (o Options) policyKeyHash(mix mixes.Mix, policy string, seed int64) (string, error) {
	return runstore.Hash(policyKey{
		Schema:        StoreSchema,
		Kind:          "policy",
		Sim:           o.Sim,
		CMM:           o.CMM,
		WarmEpochs:    o.WarmEpochs,
		MeasureEpochs: o.MeasureEpochs,
		Mix:           mix.Name,
		Specs:         mix.Specs,
		Policy:        policy,
		Seed:          seed,
	})
}

func (o Options) soloKeyHash(spec workload.Spec, seed int64, msrVal uint64, ways int) (string, error) {
	return runstore.Hash(soloKey{
		Schema:     StoreSchema,
		Kind:       "solo",
		Sim:        o.Sim,
		WarmCycles: o.SoloWarmCycles,
		MeasCycles: o.SoloMeasureCycles,
		Spec:       spec,
		Seed:       seed,
		MSR:        msrVal,
		Ways:       ways,
	})
}

// storeIdentity is an optional policy capability: a policy whose behavior
// is not fully determined by its report name (CMM-L, whose decisions
// depend on the loaded model) returns a richer identity string here, and
// the run store keys on that instead. Without it, two differently-trained
// CMM-L instances would collide on one cache entry.
type storeIdentity interface {
	StoreIdentity() string
}

// PolicyStoreName returns the policy's run-store identity: its
// StoreIdentity when implemented, its report name otherwise. The serving
// tier uses it to key job-level results so CMM-L jobs address per-model
// entries.
func PolicyStoreName(p cmm.Policy) string {
	if si, ok := p.(storeIdentity); ok {
		return si.StoreIdentity()
	}
	return p.Name()
}

// emitStoreEvent reports one run-store lookup on the telemetry stream.
func emitStoreEvent(o Options, mix, policy, benchmark string, seed int64, hit bool) {
	if o.Telemetry == nil {
		return
	}
	o.Telemetry.Emit(telemetry.Event{
		Type:      telemetry.TypeStore,
		Mix:       mix,
		Policy:    policy,
		Benchmark: benchmark,
		Seed:      seed,
		Hit:       hit,
	})
}

// runPolicyCached is a policy run behind the run store: on a hit the
// stored result is decoded and run is never called, so nothing is
// simulated; on a miss run executes on a Clone of the policy (runs never
// share policy state) and its result is persisted in canonical JSON.
// Concurrent identical requests are deduplicated by the store's
// singleflight, so one simulation serves all.
func runPolicyCached(opts Options, mix mixes.Mix, policy cmm.Policy, seed int64, run func(cmm.Policy) (policyRun, error)) (policyRun, error) {
	if opts.Store == nil {
		return run(policy.Clone())
	}
	key, err := opts.policyKeyHash(mix, PolicyStoreName(policy), seed)
	if err != nil {
		return policyRun{}, fmt.Errorf("experiments: store key: %w", err)
	}
	data, hit, err := opts.Store.GetOrCompute(key, func() ([]byte, error) {
		r, err := run(policy.Clone())
		if err != nil {
			return nil, err
		}
		return runstore.Canonical(r)
	})
	if err != nil {
		return policyRun{}, err
	}
	emitStoreEvent(opts, mix.Name, policy.Name(), "", seed, hit)
	var r policyRun
	if err := json.Unmarshal(data, &r); err != nil {
		return policyRun{}, fmt.Errorf("experiments: store entry %s: %w", key, err)
	}
	return r, nil
}

// soloRunner is runSolo's signature.
type soloRunner func(Options, workload.Spec, int64, uint64, int) (soloRun, error)

// runSoloCached is the solo-run analogue of runPolicyCached. runFn is the
// actual runner (runSolo, or a test double counting invocations).
func runSoloCached(opts Options, spec workload.Spec, seed int64, msrVal uint64, ways int, runFn soloRunner) (soloRun, error) {
	if opts.Store == nil {
		return runFn(opts, spec, seed, msrVal, ways)
	}
	key, err := opts.soloKeyHash(spec, seed, msrVal, ways)
	if err != nil {
		return soloRun{}, fmt.Errorf("experiments: store key: %w", err)
	}
	data, hit, err := opts.Store.GetOrCompute(key, func() ([]byte, error) {
		r, err := runFn(opts, spec, seed, msrVal, ways)
		if err != nil {
			return nil, err
		}
		return runstore.Canonical(r)
	})
	if err != nil {
		return soloRun{}, err
	}
	emitStoreEvent(opts, "", "", spec.Name, seed, hit)
	var r soloRun
	if err := json.Unmarshal(data, &r); err != nil {
		return soloRun{}, fmt.Errorf("experiments: store entry %s: %w", key, err)
	}
	return r, nil
}

// ctx returns the run's cancellation context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}
