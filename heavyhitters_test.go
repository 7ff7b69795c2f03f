package heavyhitters_test

import (
	"math"
	"testing"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

func TestConstructorsAndInterfaces(t *testing.T) {
	// Every unit-weight summary satisfies the Summary interface.
	summaries := map[string]hh.Counter[uint64]{
		"frequent":         hh.NewFrequent[uint64](8),
		"spacesaving":      hh.NewSpaceSaving[uint64](8),
		"spacesaving-heap": hh.NewSpaceSavingHeap[uint64](8),
		"lossycounting":    hh.NewLossyCounting[uint64](8),
	}
	for name, s := range summaries {
		for _, x := range []uint64{1, 1, 2, 3} {
			s.Update(x)
		}
		if got := s.Estimate(1); got != 2 {
			t.Errorf("%s: Estimate(1) = %d, want 2", name, got)
		}
		if s.N() != 4 {
			t.Errorf("%s: N = %d, want 4", name, s.N())
		}
	}
	weighted := map[string]hh.WeightedCounter[string]{
		"frequentR":    hh.NewFrequentR[string](8),
		"spacesavingR": hh.NewSpaceSavingR[string](8),
	}
	for name, s := range weighted {
		s.UpdateWeighted("a", 2.5)
		s.UpdateWeighted("b", 1.0)
		if got := s.EstimateWeighted("a"); got != 2.5 {
			t.Errorf("%s: EstimateWeighted(a) = %v, want 2.5", name, got)
		}
		if got := s.TotalWeight(); got != 3.5 {
			t.Errorf("%s: TotalWeight = %v, want 3.5", name, got)
		}
	}
}

func TestStringKeys(t *testing.T) {
	ss := hh.New[string](hh.WithCapacity(4))
	for _, w := range []string{"the", "the", "quick", "the", "fox", "quick"} {
		ss.Update(w)
	}
	top := ss.Top(2)
	if len(top) != 2 || top[0].Item != "the" || top[0].Count != 3 {
		t.Errorf("Top = %v", top)
	}
}

func TestTopTruncation(t *testing.T) {
	f := hh.New[uint64](hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(10))
	f.Update(1)
	f.Update(2)
	if got := f.Top(5); len(got) != 2 {
		t.Errorf("Top(5) returned %d entries, want 2", len(got))
	}
	r := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(10))
	r.UpdateWeighted(1, 2)
	if got := r.Top(5); len(got) != 1 {
		t.Errorf("weighted Top(5) returned %d entries, want 1", len(got))
	}
}

func TestErrorBoundAndGuarantee(t *testing.T) {
	g := hh.NewSpaceSaving[uint64](10).Guarantee()
	if got := hh.ErrorBound(g, 10, 2, 80); got != 10 {
		t.Errorf("ErrorBound = %v, want 10", got)
	}
}

func TestKSparseRecoveryEndToEnd(t *testing.T) {
	const n, total, k = 400, 40000, 8
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 3)
	truth := exact.FromStream(s)

	eps := 0.2
	m := hh.CountersForRecovery(k, eps, hh.TailGuarantee{A: 1, B: 1})
	ss := hh.NewSpaceSaving[uint64](m)
	for _, x := range s {
		ss.Update(x)
	}
	fPrime := hh.KSparseRecovery[uint64](ss, k)
	if len(fPrime) != k {
		t.Fatalf("recovery has %d entries, want %d", len(fPrime), k)
	}
	// L1 error against the bound.
	var l1 float64
	fExact := truth.Sparse()
	for id, v := range fExact {
		l1 += math.Abs(v - fPrime[id])
	}
	for id, v := range fPrime {
		if _, ok := fExact[id]; !ok {
			l1 += v
		}
	}
	bound := hh.RecoveryBound(eps, k, truth.Res1(k), truth.Res1(k), 1)
	if l1 > bound {
		t.Errorf("L1 recovery error %v exceeds bound %v", l1, bound)
	}
}

func TestMSparseRecoveryUnderestimates(t *testing.T) {
	const n, total, m = 300, 30000, 50
	s := stream.Zipf(n, 1.2, total, stream.OrderRandom, 7)
	truth := exact.FromStream(s)
	ss := hh.NewSpaceSaving[uint64](m)
	fr := hh.NewFrequent[uint64](m)
	for _, x := range s {
		ss.Update(x)
		fr.Update(x)
	}
	hp := hh.NewSpaceSavingHeap[uint64](m)
	for _, x := range s {
		hp.Update(x)
	}
	for name, rec := range map[string]map[uint64]float64{
		"spacesaving":      hh.MSparseRecovery[uint64](ss),
		"frequent":         hh.MSparseRecovery[uint64](fr),
		"spacesaving-heap": hh.MSparseRecovery[uint64](hp),
	} {
		for id, v := range rec {
			if v > truth.Freq(id) {
				t.Errorf("%s: recovery overestimates item %d: %v > %v", name, id, v, truth.Freq(id))
			}
		}
	}
}

func TestEstimateResidual(t *testing.T) {
	const n, total, k = 400, 40000, 10
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 9)
	truth := exact.FromStream(s)
	const eps = 0.2
	m := k*1 + int(float64(k)/eps) // Bk + Ak/eps with A=B=1
	ss := hh.NewSpaceSaving[uint64](m)
	for _, x := range s {
		ss.Update(x)
	}
	got := hh.EstimateResidual[uint64](ss, k, float64(ss.N()))
	res := truth.Res1(k)
	if got < res*(1-eps) || got > res*(1+eps) {
		t.Errorf("residual estimate %v outside (1±%v)·%v", got, eps, res)
	}
}

func TestMergeEndToEnd(t *testing.T) {
	const n, total, m, k = 300, 30000, 60, 8
	s := stream.Zipf(n, 1.2, total, stream.OrderRandom, 11)
	truth := exact.FromStream(s)
	a := hh.New[uint64](hh.WithCapacity(m))
	b := hh.New[uint64](hh.WithCapacity(m))
	for i, x := range s {
		if i%2 == 0 {
			a.Update(x)
		} else {
			b.Update(x)
		}
	}
	merged, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	bound := hh.MergedGuarantee(hh.TailGuarantee{A: 1, B: 1}).Bound(m, k, truth.Res1(k))
	for i := uint64(0); i < n; i++ {
		if d := math.Abs(truth.Freq(i) - merged.Estimate(i)); d > bound {
			t.Errorf("item %d: merged error %v exceeds bound %v", i, d, bound)
		}
	}
}

func TestMergeAllEndToEnd(t *testing.T) {
	const n, total, m, k = 300, 60000, 150, 8
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 13)
	truth := exact.FromStream(s)
	// Three inputs, one of them sharded: MergeSummaries refeeds every
	// stored counter of each.
	parts := []hh.Summary[uint64]{
		hh.New[uint64](hh.WithCapacity(m)),
		hh.New[uint64](hh.WithCapacity(m)),
		hh.New[uint64](hh.WithCapacity(m), hh.WithShards(3)),
	}
	for i, x := range s {
		parts[i%3].Update(x)
	}
	merged, err := hh.MergeSummaries(m, parts...)
	if err != nil {
		t.Fatal(err)
	}
	bound := hh.MergedGuarantee(hh.TailGuarantee{A: 1, B: 1}).Bound(m, k, truth.Res1(k))
	for i := uint64(0); i < n; i++ {
		if d := math.Abs(truth.Freq(i) - merged.Estimate(i)); d > bound {
			t.Errorf("item %d: merged error %v exceeds bound %v", i, d, bound)
		}
	}
	wa := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(10))
	wb := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(10))
	wa.UpdateWeighted(1, 2)
	wb.UpdateWeighted(1, 3)
	wm, err := hh.MergeSummaries(10, wa, wb)
	if err != nil {
		t.Fatal(err)
	}
	if got := wm.Estimate(1); got != 5 {
		t.Errorf("weighted merge = %v, want 5", got)
	}
}

func TestMergeWeighted(t *testing.T) {
	a := hh.New[string](hh.WithWeighted(), hh.WithCapacity(10))
	b := hh.New[string](hh.WithWeighted(), hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(10))
	a.UpdateWeighted("x", 5)
	b.UpdateWeighted("x", 3)
	b.UpdateWeighted("y", 2)
	merged, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Estimate("x"); got != 8 {
		t.Errorf("merged x = %v, want 8", got)
	}
	if got := merged.Estimate("y"); got != 2 {
		t.Errorf("merged y = %v, want 2", got)
	}
}

func TestSketchConstructors(t *testing.T) {
	cm := hh.NewCountMin(4, 64, 1)
	cm.Update(5)
	if cm.Estimate(5) < 1 {
		t.Error("CountMin lost the update")
	}
	cs := hh.NewCountSketch(5, 64, 1)
	cs.Update(5)
	if cs.Estimate(5) < 1 {
		t.Error("CountSketch lost the update")
	}
}

func TestMergedGuaranteeConstants(t *testing.T) {
	g := hh.MergedGuarantee(hh.TailGuarantee{A: 1, B: 1})
	if g.A != 3 || g.B != 2 {
		t.Errorf("MergedGuarantee = %+v, want (3,2)", g)
	}
}
