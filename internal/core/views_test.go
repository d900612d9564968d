package core

import (
	"runtime"
	"strings"
	"testing"

	"rths/internal/xrand"
)

func viewConfig(peers, helpers, viewSize int) Config {
	specs := make([]HelperSpec, helpers)
	for j := range specs {
		specs[j] = DefaultHelperSpec()
	}
	return Config{
		NumPeers:      peers,
		Helpers:       specs,
		Seed:          42,
		DemandPerPeer: 300,
		ViewSize:      viewSize,
	}
}

func TestViewConfigValidation(t *testing.T) {
	cfg := viewConfig(4, 4, 0)
	cfg.ViewSize = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative ViewSize accepted")
	}
}

// observingSelector is a minimal StageObserver policy: it reads global
// per-helper stage state, which a partial view cannot route.
type observingSelector struct{ m int }

func (o *observingSelector) Select(r *xrand.Rand) int           { return r.Intn(o.m) }
func (o *observingSelector) Update(action int, u float64) error { return nil }
func (o *observingSelector) NumActions() int                    { return o.m }
func (o *observingSelector) ObserveStage(res StageResult)       {}

// Partial views reject StageObserver policies up front: their action
// indices would be view-local while the observed loads/capacities stay
// global, so they would silently act on the wrong helpers.
func TestViewRejectsStageObservers(t *testing.T) {
	cfg := viewConfig(4, 8, 3)
	cfg.Factory = func(_, numActions int, _ float64) (Selector, error) {
		return &observingSelector{m: numActions}, nil
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "global stage state") {
		t.Fatalf("observer policy under partial views: err = %v, want a descriptive rejection", err)
	}
	// Full views keep accepting them.
	cfg.ViewSize = 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// And AddPeer enforces the same rule when views are engaged.
	cfg.ViewSize = 3
	cfg.Factory = nil
	sys, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddPeer(&observingSelector{m: 3}, 0); err == nil || !strings.Contains(err.Error(), "global stage state") {
		t.Fatalf("AddPeer observer under partial views: err = %v", err)
	}
}

// A ViewSize of zero and any ViewSize at or above the helper count are all
// exactly the full-view engine: same RNG budget, same trajectories,
// bit-for-bit — the satellite equivalence pin.
func TestViewEquivalenceFullView(t *testing.T) {
	for _, viewSize := range []int{6, 9} {
		sys, err := New(viewConfig(40, 6, viewSize))
		if err != nil {
			t.Fatal(err)
		}
		if v := sys.PeerView(0); v != nil {
			t.Fatalf("ViewSize=%d: partial view engaged: %v", viewSize, v)
		}
		// Fresh base per comparison so both run from stage 0.
		ref, err := New(viewConfig(40, 6, 0))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 120; s++ {
			rr, err := ref.Step()
			if err != nil {
				t.Fatal(err)
			}
			sr, err := sys.Step()
			if err != nil {
				t.Fatal(err)
			}
			if rr.Welfare != sr.Welfare || rr.OptWelfare != sr.OptWelfare || rr.ServerLoad != sr.ServerLoad {
				t.Fatalf("ViewSize=%d stage %d: aggregates diverge (%v vs %v)",
					viewSize, s, rr.Welfare, sr.Welfare)
			}
			for i := range rr.Actions {
				if rr.Actions[i] != sr.Actions[i] || rr.Rates[i] != sr.Rates[i] {
					t.Fatalf("ViewSize=%d stage %d peer %d: %d/%g vs %d/%g",
						viewSize, s, i, rr.Actions[i], rr.Rates[i], sr.Actions[i], sr.Rates[i])
				}
			}
		}
	}
}

// With 0 < v < H every learner runs on exactly v actions, each peer's view
// is a valid v-subset of the pool, and every selected action routes
// through the view to an in-view global helper.
func TestPartialViewsBoundLearnerState(t *testing.T) {
	const peers, helpers, v = 24, 256, 16
	sys, err := New(viewConfig(peers, helpers, v))
	if err != nil {
		t.Fatal(err)
	}
	inView := make([]map[int]bool, peers)
	for i := 0; i < peers; i++ {
		if got := sys.Selector(i).NumActions(); got != v {
			t.Fatalf("peer %d learner has %d actions, want %d", i, got, v)
		}
		ids := sys.PeerView(i)
		if len(ids) != v {
			t.Fatalf("peer %d view %v", i, ids)
		}
		inView[i] = make(map[int]bool, v)
		for _, id := range ids {
			if id < 0 || id >= helpers || inView[i][id] {
				t.Fatalf("peer %d view invalid: %v", i, ids)
			}
			inView[i][id] = true
		}
	}
	res, err := sys.Step()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Actions {
		if !inView[i][a] {
			t.Fatalf("peer %d played helper %d outside its view %v", i, a, sys.PeerView(i))
		}
		if want := res.Capacities[a] / float64(res.Loads[a]); res.Rates[i] != want {
			t.Fatalf("peer %d rate %g, want %g", i, res.Rates[i], want)
		}
	}
}

// The acceptance-criteria memory pin: at H=256, v=16 the per-peer state is
// O(v²), so building the system allocates at least 10x less than the
// full-view O(H²) engine (measured: ~250x on the learner matrices alone).
func TestViewMemoryReduction(t *testing.T) {
	allocBytes := func(viewSize int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys, err := New(viewConfig(32, 256, viewSize))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		return after.TotalAlloc - before.TotalAlloc
	}
	full := allocBytes(0)
	partial := allocBytes(16)
	if full < 10*partial {
		t.Fatalf("construction bytes: full-view %d, v=16 %d — want >= 10x reduction", full, partial)
	}
	t.Logf("construction bytes at N=32, H=256: full-view %d, v=16 %d (%.0fx)", full, partial, float64(full)/float64(partial))
}

// Non-refresh stages of a partial-view system stay allocation-free: the
// view mapping routes select/feedback through the existing reusable
// buffers (refresh stages allocate O(v) when a learner's action set is
// rebuilt, amortized over the refresh period).
func TestViewStepZeroAllocs(t *testing.T) {
	cfg := viewConfig(64, 32, 8)
	cfg.ViewRefresh = -1 // isolate the steady-state stage loop
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(8, nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("partial-view Step allocates %g/stage, want 0", n)
	}
}

// The refresh pass swaps exactly one in-view helper per period (the
// lowest-probability one, for a uniformly sampled unseen one) and is
// deterministic for a fixed seed.
func TestViewRefreshSwapsOnePerPeriod(t *testing.T) {
	cfg := viewConfig(8, 6, 3)
	cfg.ViewRefresh = 5
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]map[int]bool, sys.NumPeers())
	for i := range initial {
		initial[i] = make(map[int]bool)
		for _, id := range sys.PeerView(i) {
			initial[i][id] = true
		}
	}
	if err := sys.Run(6, nil); err != nil { // refresh fires at stage 5
		t.Fatal(err)
	}
	if err := twin.Run(6, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.NumPeers(); i++ {
		ids := sys.PeerView(i)
		if len(ids) != 3 {
			t.Fatalf("peer %d view size %d after refresh", i, len(ids))
		}
		kept := 0
		for _, id := range ids {
			if initial[i][id] {
				kept++
			}
		}
		if kept != 2 {
			t.Fatalf("peer %d: %d of 3 initial helpers kept, want exactly 2 (one swap)", i, kept)
		}
		if got := sys.Selector(i).NumActions(); got != 3 {
			t.Fatalf("peer %d learner grew to %d actions", i, got)
		}
		twinIds := twin.PeerView(i)
		for k := range ids {
			if ids[k] != twinIds[k] {
				t.Fatalf("peer %d refresh not deterministic: %v vs %v", i, ids, twinIds)
			}
		}
	}
}

// Helper removal churns only the peers whose view contains the removed
// helper; everyone else is just renumbered. Helper addition is adopted
// only by peers whose views have room.
func TestViewHelperChurnTouchesOnlyViewers(t *testing.T) {
	cfg := viewConfig(30, 5, 2)
	cfg.ViewRefresh = -1 // isolate the churn path from refresh refills
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(3, nil); err != nil {
		t.Fatal(err)
	}
	const removed = 1
	hadIt := make([]bool, sys.NumPeers())
	for i := range hadIt {
		for _, id := range sys.PeerView(i) {
			if id == removed {
				hadIt[i] = true
			}
		}
	}
	if err := sys.RemoveHelper(removed); err != nil {
		t.Fatal(err)
	}
	short, full := 0, 0
	for i := range hadIt {
		ids := sys.PeerView(i)
		want := 2
		if hadIt[i] {
			want = 1
			short++
		} else {
			full++
		}
		if len(ids) != want || sys.Selector(i).NumActions() != want {
			t.Fatalf("peer %d (hadIt=%v): view %v, %d actions", i, hadIt[i], ids, sys.Selector(i).NumActions())
		}
		for _, id := range ids {
			if id < 0 || id >= sys.NumHelpers() {
				t.Fatalf("peer %d stale view id %d of %d helpers", i, id, sys.NumHelpers())
			}
		}
	}
	if short == 0 || full == 0 {
		t.Fatalf("degenerate draw: %d shortened, %d untouched — pick another seed", short, full)
	}
	// A new helper is adopted exactly by the shortened peers.
	if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
		t.Fatal(err)
	}
	newID := sys.NumHelpers() - 1
	for i := range hadIt {
		ids := sys.PeerView(i)
		if len(ids) != 2 || sys.Selector(i).NumActions() != 2 {
			t.Fatalf("peer %d after adoption: view %v", i, ids)
		}
		adopted := ids[len(ids)-1] == newID
		if adopted != hadIt[i] {
			t.Fatalf("peer %d adopted=%v hadRoom=%v (view %v)", i, adopted, hadIt[i], ids)
		}
	}
	if err := sys.Run(3, nil); err != nil {
		t.Fatal(err)
	}
}

// A helper adopted near a refresh boundary is not evicted by the next
// refresh swap: it still sits at the exploration-floor probability (the
// strategy's argmin, having played ~no stages), so without the deferral
// the swap would remove it before it was ever priced.
func TestViewAdoptionProtectedFromRefreshSwap(t *testing.T) {
	cfg := viewConfig(20, 6, 3)
	cfg.ViewRefresh = 10
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(9, nil); err != nil {
		t.Fatal(err)
	}
	// One stage before the refresh, remove an in-view helper and add a new
	// one: shortened peers adopt it at the floor probability.
	const removed = 0
	if err := sys.RemoveHelper(removed); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
		t.Fatal(err)
	}
	newID := sys.NumHelpers() - 1
	adopters := make(map[int]bool)
	for i := 0; i < sys.NumPeers(); i++ {
		ids := sys.PeerView(i)
		if len(ids) > 0 && ids[len(ids)-1] == newID {
			adopters[i] = true
		}
	}
	if len(adopters) == 0 {
		t.Fatal("no peer adopted the new helper; pick another seed")
	}
	if err := sys.Run(2, nil); err != nil { // crosses the stage-10 refresh
		t.Fatal(err)
	}
	for i := range adopters {
		found := false
		for _, id := range sys.PeerView(i) {
			if id == newID {
				found = true
			}
		}
		if !found {
			t.Fatalf("peer %d's freshly adopted helper %d was evicted by the refresh swap before playing a period (view %v)",
				i, newID, sys.PeerView(i))
		}
	}
}

// Removing a peer's only in-view helper swaps in a replacement instead of
// emptying its action set (the ViewSize=1 degenerate case).
func TestViewLastHelperRemovalSwapsReplacement(t *testing.T) {
	cfg := viewConfig(12, 4, 1)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	for sys.NumHelpers() > 1 {
		if err := sys.RemoveHelper(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sys.NumPeers(); i++ {
			ids := sys.PeerView(i)
			if len(ids) != 1 || sys.Selector(i).NumActions() != 1 {
				t.Fatalf("peer %d view %v with %d helpers", i, ids, sys.NumHelpers())
			}
			if ids[0] < 0 || ids[0] >= sys.NumHelpers() {
				t.Fatalf("peer %d stale view id %d of %d", i, ids[0], sys.NumHelpers())
			}
		}
		if err := sys.Run(1, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// Mid-run joiners get views from the same deterministic stream, sized by
// NewPeerActions.
func TestViewAddPeer(t *testing.T) {
	sys, err := New(viewConfig(4, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NewPeerActions(); got != 3 {
		t.Fatalf("NewPeerActions = %d, want 3", got)
	}
	i, err := sys.AddPeer(nil, 300)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Selector(i).NumActions(); got != 3 {
		t.Fatalf("joiner has %d actions", got)
	}
	if ids := sys.PeerView(i); len(ids) != 3 {
		t.Fatalf("joiner view %v", ids)
	}
	if err := sys.Run(5, nil); err != nil {
		t.Fatal(err)
	}
}

// The stage protocol: helper and peer churn belong between stages. Inside
// an open SelectStage/FinishStage pair the churn ops are rejected with a
// descriptive error instead of corrupting the learners' pending
// selections (which used to surface later as the baffling
// "Update(action=N) does not match selected action -1").
func TestMidStageChurnRejected(t *testing.T) {
	sys, err := New(viewConfig(6, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.SelectStage(); err != nil {
		t.Fatal(err)
	}
	wantErr := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s mid-stage was accepted", name)
		}
		if !strings.Contains(err.Error(), "SelectStage") || !strings.Contains(err.Error(), "between stages") {
			t.Fatalf("%s error not descriptive: %v", name, err)
		}
	}
	wantErr("AddHelper", sys.AddHelper(DefaultHelperSpec()))
	wantErr("RemoveHelper", sys.RemoveHelper(0))
	_, addErr := sys.AddPeer(nil, 0)
	wantErr("AddPeer", addErr)
	wantErr("RemovePeer", sys.RemovePeer(0))
	// The open stage is still completable, and churn works again after.
	if _, err := sys.FinishStage(sys.Capacities()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveHelper(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyViewEngagementOnGrowth pins the growth seam: a system built
// with ViewSize at or above the helper count runs full-view (no view
// state, no view randomness), and the AddHelper call that first pushes
// the pool past the bound engages partial views for every resident peer
// — each shrinks to exactly ViewSize through the churn seam — while
// later joiners and the stage loop behave like any partial-view system.
func TestLazyViewEngagementOnGrowth(t *testing.T) {
	sys, err := New(viewConfig(12, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Grow to the bound: 4 → 6 helpers stays full-view.
	for sys.NumHelpers() < 6 {
		if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	if ids := sys.PeerView(0); ids != nil {
		t.Fatalf("views engaged at the bound: %v", ids)
	}
	if got := sys.Selector(0).NumActions(); got != 6 {
		t.Fatalf("full-view peer has %d actions, want 6", got)
	}
	// The 7th helper crosses the bound: every resident engages.
	if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ids := sys.PeerView(i)
		if len(ids) != 6 {
			t.Fatalf("peer %d: engaged view %v, want 6 ids", i, ids)
		}
		seen := map[int]bool{}
		for _, h := range ids {
			if h < 0 || h >= 7 || seen[h] {
				t.Fatalf("peer %d: invalid view %v", i, ids)
			}
			seen[h] = true
		}
		if got := sys.Selector(i).NumActions(); got != 6 {
			t.Fatalf("peer %d: %d actions after engagement, want 6", i, got)
		}
	}
	// The engaged system keeps stepping, and joiners get views.
	if err := sys.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	if got := sys.NewPeerActions(); got != 6 {
		t.Fatalf("NewPeerActions = %d after engagement, want 6", got)
	}
	i, err := sys.AddPeer(nil, 300)
	if err != nil {
		t.Fatal(err)
	}
	if ids := sys.PeerView(i); len(ids) != 6 {
		t.Fatalf("joiner view %v, want 6 ids", ids)
	}
	if err := sys.Run(5, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLazyEngagementNeverCrossingStaysFullView pins the zero-cost side
// of the seam: a ViewSize-configured system whose pool never exceeds the
// bound consumes no view randomness at all — its trajectory through the
// same AddHelper schedule is bit-identical to an unbounded run.
func TestLazyEngagementNeverCrossingStaysFullView(t *testing.T) {
	run := func(viewSize int) []float64 {
		sys, err := New(viewConfig(12, 4, viewSize))
		if err != nil {
			t.Fatal(err)
		}
		var welfare []float64
		obs := func(r StageResult) { welfare = append(welfare, r.Welfare) }
		for _, burst := range []int{10, 10, 20} {
			if err := sys.Run(burst, obs); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Run(20, obs); err != nil {
			t.Fatal(err)
		}
		if ids := sys.PeerView(0); ids != nil {
			t.Fatalf("ViewSize=%d: views engaged below the bound: %v", viewSize, ids)
		}
		return welfare
	}
	bounded, unbounded := run(8), run(0) // pool grows 4 → 7, bound 8 never crossed
	for s := range bounded {
		if bounded[s] != unbounded[s] {
			t.Fatalf("stage %d: %g vs %g — uncrossed bound not bit-identical to full view",
				s, bounded[s], unbounded[s])
		}
	}
}

// dynamicObserver is a StageObserver that also supports helper churn, so
// AddHelper's DynamicSelector requirement passes and the engagement
// pre-check is the rule actually under test.
type dynamicObserver struct{ observingSelector }

func (o *dynamicObserver) AddAction()       { o.m++ }
func (o *dynamicObserver) RemoveAction(int) { o.m-- }

// TestLazyEngagementRejectsStageObservers extends the StageObserver
// compatibility rule to the growth seam: a full-view system below the
// bound accepts observer policies, but the AddHelper call that would
// engage partial views rejects them descriptively and leaves the pool
// untouched.
func TestLazyEngagementRejectsStageObservers(t *testing.T) {
	cfg := viewConfig(4, 4, 6)
	cfg.Factory = func(_, numActions int, _ float64) (Selector, error) {
		return &dynamicObserver{observingSelector{m: numActions}}, nil
	}
	sys, err := New(cfg) // ViewSize 6 ≥ H=4: full views, observers fine
	if err != nil {
		t.Fatal(err)
	}
	for sys.NumHelpers() < 6 {
		if err := sys.AddHelper(DefaultHelperSpec()); err != nil {
			t.Fatal(err)
		}
	}
	err = sys.AddHelper(DefaultHelperSpec())
	if err == nil || !strings.Contains(err.Error(), "global stage state") {
		t.Fatalf("engaging AddHelper with observer peers: err = %v, want a descriptive rejection", err)
	}
	if got := sys.NumHelpers(); got != 6 {
		t.Fatalf("failed engagement still grew the pool to %d helpers", got)
	}
	if _, err := sys.Step(); err != nil {
		t.Fatal(err)
	}
}
