package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/server"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// workloadSpec describes one workload: its loop type, offered rate and
// why it is in the benchmark.
type workloadSpec struct {
	Name     string
	OpenLoop bool
	// Rate is the open-loop arrival rate in requests per second: about
	// 0.19 (fresh) and 0.14 (crowd) of the closed-loop capacity that
	// --calibrate measures. At higher rates, queueing at the two
	// connections made the latency percentiles too unsteady to bound.
	Rate float64
	Why  string
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workloadSpec{
	{"fresh", true, 25, "Poisson visitors with paper-generator endpoints that never repeat: core route and family builds do most of the work"},
	{"crowd", true, 100, "Poisson crowd on 6 hot partition pairs plus kiosks in one slot: cache hits, so coalescer hold, probe and HTTP set latency"},
	{"flips", true, 100, "the crowd stream plus a door-schedule update every 2 s: graph rebuilds, dropped tiers and the refill storm after each swap"},
	{"batch", false, 0, "closed loop of 32-query batches, 3/4 one-source-many-targets and 1/4 static many-sources-to-one-exit: batchplan and RouteMany"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	// conns is the number of client connections (and in-process
	// callers) driving the stack: the box's core count.
	conns = 2
	// batchSize is the number of queries in one batch request.
	batchSize = 32
	// hotPairCount is the number of hot partition pairs on crowd/flips;
	// the first kioskCount pairs also carry a fixed kiosk query.
	hotPairCount = 6
	kioskCount   = 3
	// flipEvery is the spacing of schedule updates on flips, seconds.
	flipEvery = 2.0
	// freshChunk is the number of endpoints asked of one generator call.
	freshChunk = 16
)

// Departure windows. fresh spreads departures over 07:00–22:00; crowd
// keeps its jittered departures in 11:00–13:00 and its kiosk departures
// in the minute after 12:00, all inside one checkpoint slot.
var (
	freshFrom  = temporal.Clock(7, 0, 0)
	freshSpan  = 15 * 3600
	crowdFrom  = temporal.Clock(11, 0, 0)
	crowdSpan  = 2 * 3600
	kioskFrom  = temporal.Clock(12, 0, 0)
	kioskSpan  = 60
	crowdSlack = temporal.TimeOfDay(3600) // longest walk the slot must still hold
)

// request is one generated request: a route (one query), a batch
// (batchSize queries) or, on flips, a schedule update.
type request struct {
	// Due is the send time in seconds after the stream starts (open
	// loop only).
	Due float64
	// Warm marks warm-up requests, sent before the timed window.
	Warm    bool
	Method  string
	Queries []core.Query
	// Flip is the schedule update index, or -1 for a route or batch.
	Flip int
	// Batch sends Queries as one batch request.
	Batch bool
}

// workload is one generated input stream. The stream is a pure
// function of (spec, seed, warm-up and window lengths).
type workload struct {
	workloadSpec
	Seed int64
	// reqs is the open-loop timeline, warm-up first.
	reqs []request
	// updates alternate on flips: update k sends updates[k%2], which
	// first closes the hot routes' target doors and then restores them.
	updates []map[string][]string
	// batchAt generates the closed-loop batch with index i.
	batchAt func(i int) request
}

// venueCtx is the generator's view of the served mall.
type venueCtx struct {
	mall *synth.Mall
	g    *itgraph.Graph
	v    *model.Venue
	// public lists every hallway cell and public shop; shops only the
	// public shops; halls the hallway cells.
	public, shops, halls []model.PartitionID
	// exits are points in the hallway cells behind the entrances.
	exits []geom.Point
}

// newVenueCtx regenerates the mall preset with its generator handles
// (hallway cells, shops) and checks it matches the model the server
// serves.
func newVenueCtx() (*venueCtx, error) {
	m, err := synth.GenerateMall(synth.MallConfig{Seed: 42, ATI: synth.ATIConfig{CheckpointCount: 8, Seed: 43}})
	if err != nil {
		return nil, err
	}
	served, err := server.PresetVenue(venueID)
	if err != nil {
		return nil, err
	}
	if served.DoorCount() != m.Venue.DoorCount() || served.PartitionCount() != m.Venue.PartitionCount() {
		return nil, errors.New("the mall preset no longer matches the generator configuration in newVenueCtx")
	}
	for i, d := range served.Doors() {
		if d.Name != m.Venue.Doors()[i].Name || d.Pos != m.Venue.Doors()[i].Pos {
			return nil, errors.New("the mall preset no longer matches the generator configuration in newVenueCtx")
		}
	}
	g, err := itgraph.New(m.Venue)
	if err != nil {
		return nil, err
	}
	c := &venueCtx{mall: m, g: g, v: m.Venue}
	for f := range m.HallwayCells {
		c.halls = append(c.halls, m.HallwayCells[f]...)
		c.shops = append(c.shops, m.PublicShops[f]...)
	}
	c.public = append(append(c.public, c.halls...), c.shops...)
	for _, d := range c.v.Doors() {
		if d.Kind != model.EntranceDoor {
			continue
		}
		for _, p := range c.v.PartitionsOf(d.ID) {
			if r := c.v.Partition(p).Rect; c.v.Partition(p).Kind != model.OutdoorPartition {
				c.exits = append(c.exits, geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, r.Floor))
			}
		}
	}
	if len(c.exits) == 0 {
		return nil, errors.New("mall has no entrances")
	}
	return c, nil
}

// interior samples a point strictly inside a partition (10% margin),
// so point location is never ambiguous.
func (c *venueCtx) interior(rng *rand.Rand, p model.PartitionID) geom.Point {
	r := c.v.Partition(p).Rect
	margin := math.Min(r.Width(), r.Height()) * 0.1
	return geom.Pt(
		r.MinX+margin+rng.Float64()*(r.Width()-2*margin),
		r.MinY+margin+rng.Float64()*(r.Height()-2*margin),
		r.Floor)
}

// The stream's mix is stratified rather than drawn independently per
// request, so every run of a workload holds the same proportions and
// the seed moves only which request gets which value.

// pickMethods returns n methods with syn:asyn:static at exactly 1:2:1
// (up to rounding), in seeded order.
func pickMethods(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = [...]string{"syn", "asyn", "asyn", "static"}[i%4]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spread returns n whole-second offsets in [0, span), one in each of n
// equal strata, in seeded order.
func spread(rng *rand.Rand, n, span int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = int((float64(k) + rng.Float64()) * float64(span) / float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// arrivals draws the offsets of rate×total Poisson arrivals in
// [0, total) seconds: given their count, the arrival instants of a
// Poisson process are independent and uniform.
func arrivals(rng *rand.Rand, rate, total float64) []float64 {
	out := make([]float64, int(math.Round(rate*total)))
	for i := range out {
		out[i] = rng.Float64() * total
	}
	sort.Float64s(out)
	return out
}

// parallel runs fn(worker, 0..n-1) on up to GOMAXPROCS worker
// goroutines and waits for them.
func parallel(n int, fn func(worker, i int)) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				fn(worker, k)
			}
		}(w)
	}
	wg.Wait()
}

// freshEndpoints draws n endpoint pairs from the paper's query
// generator, δs2t drawn from 1100–1900 m per generator call.
func (c *venueCtx) freshEndpoints(rng *rand.Rand, n int) ([]synth.QueryInstance, error) {
	var out []synth.QueryInstance
	for len(out) < n {
		cfgs := make([]synth.QueryConfig, (n-len(out))/freshChunk+1)
		for i := range cfgs {
			cfgs[i] = synth.QueryConfig{S2T: 1100 + 100*float64(rng.Intn(9)), Count: freshChunk, Seed: rng.Int63()}
		}
		got := make([][]synth.QueryInstance, len(cfgs))
		// A call that finds fewer than Count instances returns them
		// with an error; the instances it did find are used.
		parallel(len(cfgs), func(_, i int) { got[i], _ = synth.GenerateQueries(c.mall, c.g.DM(), cfgs[i]) })
		before := len(out)
		for _, g := range got {
			out = append(out, g...)
		}
		if len(out) == before {
			return nil, errors.New("query generator produced no endpoints")
		}
	}
	return out[:n], nil
}

// hotPair is one crowd partition pair with the generator's endpoints,
// which double as the pair's kiosk query.
type hotPair struct {
	src, tgt model.PartitionID
	from, to geom.Point
}

func (c *venueCtx) hotPairs(seed int64) ([]hotPair, error) {
	inst, _ := synth.GenerateQueries(c.mall, c.g.DM(), synth.QueryConfig{S2T: 1500, Count: 3 * hotPairCount, Seed: seed})
	seen := map[[2]model.PartitionID]bool{}
	var out []hotPair
	for _, in := range inst {
		s, ok1 := c.v.Locate(in.Source)
		t, ok2 := c.v.Locate(in.Target)
		if !ok1 || !ok2 || s == t || seen[[2]model.PartitionID{s, t}] {
			continue
		}
		seen[[2]model.PartitionID{s, t}] = true
		out = append(out, hotPair{src: s, tgt: t, from: in.Source, to: in.Target})
		if len(out) == hotPairCount {
			return out, nil
		}
	}
	return nil, fmt.Errorf("only %d hot pairs for seed %d", len(out), seed)
}

// flipUpdates builds the two alternating schedule updates of flips:
// close the target-side door of the kiosk pairs' routes, then restore
// its original schedule.
func (c *venueCtx) flipUpdates(hot []hotPair) ([]map[string][]string, error) {
	e := core.NewEngine(c.g, core.Options{Method: core.MethodAsyn})
	closeU, reopenU := map[string][]string{}, map[string][]string{}
	for _, hp := range hot[:kioskCount] {
		p, _, err := e.Route(core.Query{Source: hp.from, Target: hp.to, At: kioskFrom})
		if err != nil || len(p.Doors) == 0 {
			continue
		}
		d := c.v.Door(p.Doors[len(p.Doors)-1])
		atis, err := wireSchedule(d.ATIs)
		if err != nil {
			return nil, fmt.Errorf("door %s: %w", d.Name, err)
		}
		closeU[d.Name] = []string{}
		reopenU[d.Name] = atis
	}
	if len(closeU) == 0 {
		return nil, errors.New("no kiosk route to flip")
	}
	return []map[string][]string{closeU, reopenU}, nil
}

// wireSchedule writes a door schedule the way a schedule update sends
// it. A door without a schedule (virtual and stair doors) is always
// open, which the wire writes as null; an empty list would close it.
func wireSchedule(s temporal.Schedule) ([]string, error) {
	if s == nil {
		return nil, nil
	}
	out := make([]string, len(s))
	for i, iv := range s {
		out[i] = iv.String()
		if back, err := temporal.ParseInterval(out[i]); err != nil || back != iv {
			return nil, fmt.Errorf("schedule %v does not round-trip the wire", s)
		}
	}
	return out, nil
}

// probeQuery is the fixed route whose answer ends a stack's set-up.
func (c *venueCtx) probeQuery() (core.Query, error) {
	hot, err := c.hotPairs(1)
	if err != nil {
		return core.Query{}, err
	}
	return core.Query{Source: hot[0].from, Target: hot[0].to, At: kioskFrom}, nil
}

// seconds turns a whole-second offset into a departure.
func seconds(base temporal.TimeOfDay, n int) temporal.TimeOfDay {
	return base + temporal.TimeOfDay(n)
}

// freshPopulation seeds the fixed sample of endpoint pairs fresh draws
// from: every fresh run uses the same pairs, so runs differ in order,
// departures and methods but not in the endpoints' geometry.
const freshPopulation = 1

// buildWorkload generates a workload's stream from its seed: warm
// seconds of warm-up followed by a timed window of window seconds.
func buildWorkload(c *venueCtx, spec workloadSpec, seed int64, warm, window float64) (*workload, error) {
	w := &workload{workloadSpec: spec, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	total := warm + window
	switch spec.Name {
	case "fresh":
		due := arrivals(rng, spec.Rate, total)
		eps, err := c.freshEndpoints(rand.New(rand.NewSource(freshPopulation)), len(due))
		if err != nil {
			return nil, err
		}
		order, methods, deps := rng.Perm(len(due)), pickMethods(rng, len(due)), spread(rng, len(due), freshSpan)
		for i, t := range due {
			ep := eps[order[i]]
			q := core.Query{Source: ep.Source, Target: ep.Target, At: seconds(freshFrom, deps[i])}
			w.reqs = append(w.reqs, request{Due: t, Warm: t < warm, Method: methods[i], Queries: []core.Query{q}, Flip: -1})
		}
	case "crowd", "flips":
		cps := c.g.Checkpoints()
		if cps.SlotOf(crowdFrom) != cps.SlotOf(seconds(crowdFrom, crowdSpan)+crowdSlack) {
			return nil, errors.New("crowd departures no longer fall in one checkpoint slot")
		}
		hot, err := c.hotPairs(rng.Int63())
		if err != nil {
			return nil, err
		}
		due := arrivals(rng, spec.Rate, total)
		methods, deps := pickMethods(rng, len(due)), spread(rng, len(due), crowdSpan)
		for i, t := range due {
			var q core.Query
			// One request in five is a kiosk's.
			if hp := hot[i%len(hot)]; i%5 != 4 {
				q = core.Query{Source: c.interior(rng, hp.src), Target: c.interior(rng, hp.tgt), At: seconds(crowdFrom, deps[i])}
			} else {
				hp := hot[rng.Intn(kioskCount)]
				q = core.Query{Source: hp.from, Target: hp.to, At: seconds(kioskFrom, rng.Intn(kioskSpan))}
			}
			w.reqs = append(w.reqs, request{Due: t, Warm: t < warm, Method: methods[i], Queries: []core.Query{q}, Flip: -1})
		}
		if spec.Name == "flips" {
			if w.updates, err = c.flipUpdates(hot); err != nil {
				return nil, err
			}
			for k := 0; 1+flipEvery*float64(k) < total; k++ {
				t := 1 + flipEvery*float64(k)
				w.reqs = append(w.reqs, request{Due: t, Warm: t < warm, Flip: k})
			}
			sort.SliceStable(w.reqs, func(i, j int) bool { return w.reqs[i].Due < w.reqs[j].Due })
		}
	case "batch":
		b := c.newBatcher(rng)
		w.batchAt = b.batch
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.Name)
	}
	return w, nil
}

// batchCycle is the number of consecutive batches over which batch
// departures cover 07:00–22:00 in equal strata.
const batchCycle = 64

// batcher generates the closed-loop batch stream. Source cells cycle
// through a seeded permutation of every hallway cell and departures
// through batchCycle strata, so a run's batches cover the mall evenly.
type batcher struct {
	c     *venueCtx
	seed  int64
	halls []int // permutation of c.halls
	deps  []int // departure offsets, one per stratum
	exit  int   // first exit
}

func (c *venueCtx) newBatcher(rng *rand.Rand) *batcher {
	return &batcher{c: c, seed: rng.Int63(), halls: rng.Perm(len(c.halls)),
		deps: spread(rng, batchCycle, freshSpan), exit: rng.Intn(len(c.exits))}
}

// batch generates batch i: every fourth a static batch from scattered
// sources to one exit, the others one source to many shops at one
// departure, syn:asyn at 1:2.
func (b *batcher) batch(i int) request {
	c := b.c
	rng := rand.New(rand.NewSource(int64(uint64(b.seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1)))
	at := seconds(freshFrom, b.deps[i%batchCycle])
	qs := make([]core.Query, batchSize)
	if i%4 == 3 {
		exit := c.exits[(b.exit+i/4)%len(c.exits)]
		for j := range qs {
			qs[j] = core.Query{Source: c.interior(rng, c.public[rng.Intn(len(c.public))]), Target: exit, At: at}
		}
		return request{Method: "static", Queries: qs, Flip: -1, Batch: true}
	}
	method := "asyn"
	if i%12 < 4 {
		method = "syn"
	}
	src := c.interior(rng, c.halls[b.halls[(i-i/4)%len(b.halls)]])
	for j := range qs {
		qs[j] = core.Query{Source: src, Target: c.interior(rng, c.shops[rng.Intn(len(c.shops))]), At: at}
	}
	return request{Method: method, Queries: qs, Flip: -1, Batch: true}
}

// fingerprintBatches is how many closed-loop batches the fingerprint
// covers; the closed-loop stream itself is unbounded.
const fingerprintBatches = 256

// fingerprint is a stable digest of the generated stream, so two
// reports can be shown to have replayed identical requests.
func (w *workload) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%.17g\n", w.Name, w.Seed, w.Rate)
	reqs := w.reqs
	if w.batchAt != nil {
		for i := 0; i < fingerprintBatches; i++ {
			reqs = append(reqs, w.batchAt(i))
		}
	}
	for _, r := range reqs {
		fmt.Fprintf(h, "%.17g|%t|%s|%d\n", r.Due, r.Warm, r.Method, r.Flip)
		for _, q := range r.Queries {
			fmt.Fprintf(h, "%.17g,%.17g,%d|%.17g,%.17g,%d|%.17g|%.17g\n",
				q.Source.X, q.Source.Y, q.Source.Floor, q.Target.X, q.Target.Y, q.Target.Floor, float64(q.At), q.Speed)
		}
	}
	for k, u := range w.updates {
		names := make([]string, 0, len(u))
		for n := range u {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "update %d %s %q\n", k, n, u[n])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
