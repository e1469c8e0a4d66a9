package indoorpath

import (
	"io"

	"indoorpath/internal/bench"
	"indoorpath/internal/coalesce"
	"indoorpath/internal/core"
	"indoorpath/internal/decompose"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/render"
	"indoorpath/internal/replay"
	"indoorpath/internal/server"
	"indoorpath/internal/service"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// Geometry types.
type (
	// Point is a location on a floor (metres; integer floor).
	Point = geom.Point
	// Rect is an axis-aligned rectangle on one floor.
	Rect = geom.Rect
	// Polygon is a simple polygon on one floor.
	Polygon = geom.Polygon
)

// Pt builds a Point.
func Pt(x, y float64, floor int) Point { return geom.Pt(x, y, floor) }

// NewRect builds a canonical rectangle from two opposite corners.
func NewRect(x1, y1, x2, y2 float64, floor int) Rect { return geom.NewRect(x1, y1, x2, y2, floor) }

// Temporal types.
type (
	// TimeOfDay is seconds since midnight.
	TimeOfDay = temporal.TimeOfDay
	// Interval is one active time interval [open, close).
	Interval = temporal.Interval
	// Schedule is a door's normalised list of ATIs.
	Schedule = temporal.Schedule
	// CheckpointSet is the sorted set of topology-change instants.
	CheckpointSet = temporal.CheckpointSet
)

// Clock builds a TimeOfDay from hours, minutes, seconds.
func Clock(h, m, s int) TimeOfDay { return temporal.Clock(h, m, s) }

// ParseTime reads "H:MM" (24-hour clock).
func ParseTime(s string) (TimeOfDay, error) { return temporal.Parse(s) }

// MustParseTime is ParseTime that panics on error.
func MustParseTime(s string) TimeOfDay { return temporal.MustParse(s) }

// ParseSchedule reads ATI notation such as "[8:00, 16:00), [18:00, 22:00)".
func ParseSchedule(s string) (Schedule, error) { return temporal.ParseSchedule(s) }

// MustSchedule is ParseSchedule that panics on error.
func MustSchedule(s string) Schedule {
	sched, err := temporal.ParseSchedule(s)
	if err != nil {
		panic(err)
	}
	return sched
}

// AlwaysOpen returns the schedule of a door with no temporal variation.
func AlwaysOpen() Schedule { return temporal.AlwaysOpen() }

// Model types.
type (
	// Venue is an immutable indoor space.
	Venue = model.Venue
	// Builder assembles a Venue.
	Builder = model.Builder
	// Partition is one indoor region (an IT-Graph vertex).
	Partition = model.Partition
	// Door is one indoor door (an IT-Graph edge label).
	Door = model.Door
	// PartitionID identifies a partition.
	PartitionID = model.PartitionID
	// DoorID identifies a door.
	DoorID = model.DoorID
	// PartitionKind classifies partitions (public/private/...).
	PartitionKind = model.PartitionKind
	// DoorKind classifies doors (public/private/virtual/...).
	DoorKind = model.DoorKind
	// VenueStats summarises a venue.
	VenueStats = model.Stats
)

// Partition kinds.
const (
	PublicPartition    = model.PublicPartition
	PrivatePartition   = model.PrivatePartition
	HallwayPartition   = model.HallwayPartition
	StairwellPartition = model.StairwellPartition
	OutdoorPartition   = model.OutdoorPartition
)

// Door kinds.
const (
	PublicDoor   = model.PublicDoor
	PrivateDoor  = model.PrivateDoor
	VirtualDoor  = model.VirtualDoor
	StairDoor    = model.StairDoor
	EntranceDoor = model.EntranceDoor
)

// NewBuilder starts an empty venue.
func NewBuilder(name string) *Builder { return model.NewBuilder(name) }

// Graph types.
type (
	// Graph is the IT-Graph over a venue.
	Graph = itgraph.Graph
	// GraphStats summarises a graph.
	GraphStats = itgraph.Stats
)

// NewGraph builds the IT-Graph (distance matrices + checkpoints) for a
// venue.
func NewGraph(v *Venue) (*Graph, error) { return itgraph.New(v) }

// SaveVenue writes a venue as JSON.
func SaveVenue(w io.Writer, v *Venue) error { return itgraph.Save(w, v) }

// LoadVenue reads a venue from JSON.
func LoadVenue(r io.Reader) (*Venue, error) { return itgraph.Load(r) }

// Query engine types.
type (
	// Query is one ITSPQ(ps, pt, t) instance.
	Query = core.Query
	// Path is a valid indoor path.
	Path = core.Path
	// Engine answers ITSPQ queries.
	Engine = core.Engine
	// Options tune the engine.
	Options = core.Options
	// Method selects the temporal check strategy.
	Method = core.Method
	// SearchStats describes one query execution.
	SearchStats = core.SearchStats
	// ManyOutcome is one query's answer from a shared-execution run
	// (Engine.RouteMany / Engine.RouteManyTo): one engine search
	// answering a whole same-endpoint group, each outcome byte-identical
	// to a solo Engine.Route whenever the shortest valid path is unique.
	ManyOutcome = core.ManyOutcome
	// StaticRouter is the temporal-unaware baseline.
	StaticRouter = core.StaticRouter
	// WaitingRouter is the earliest-arrival extension with waiting.
	WaitingRouter = core.WaitingRouter
)

// Methods.
const (
	// MethodSyn is ITG/S (synchronous ATI checks, Algorithm 2).
	MethodSyn = core.MethodSyn
	// MethodAsyn is ITG/A (asynchronous snapshot checks, Algorithms 3–4).
	MethodAsyn = core.MethodAsyn
	// MethodStatic ignores temporal variation (baseline).
	MethodStatic = core.MethodStatic
)

// Sentinel errors.
var (
	// ErrNoRoute is returned when no valid path exists at the query time.
	ErrNoRoute = core.ErrNoRoute
	// ErrNotIndoor is returned when an endpoint lies in no partition.
	ErrNotIndoor = core.ErrNotIndoor
)

// WalkingSpeedMPS is the paper's default walking speed (5 km/h).
const WalkingSpeedMPS = core.WalkingSpeedMPS

// NewEngine builds an ITSPQ engine over a graph.
func NewEngine(g *Graph, opts Options) *Engine { return core.NewEngine(g, opts) }

// NewStaticRouter builds the temporal-unaware baseline router.
func NewStaticRouter(g *Graph) *StaticRouter { return core.NewStaticRouter(g) }

// NewWaitingRouter builds the earliest-arrival router with waiting.
func NewWaitingRouter(g *Graph) *WaitingRouter { return core.NewWaitingRouter(g) }

// ValidityWindow computes the departure-time interval for which a
// returned path's door sequence stays valid (answer caching / "leave
// by" guidance).
func ValidityWindow(g *Graph, p *Path, q Query) (Interval, error) {
	return core.ValidityWindow(g, p, q)
}

// EarliestValidDeparture finds the earliest departure >= q.At for which
// a no-waiting valid path exists (probing the venue's checkpoints).
func EarliestValidDeparture(e *Engine, q Query) (TimeOfDay, *Path, bool) {
	return core.EarliestValidDeparture(e, q)
}

// StaticThenValidate is the naive baseline: compute the static shortest
// path, then reject it if any door is closed on arrival.
func StaticThenValidate(g *Graph, q Query) (*Path, error) {
	return core.StaticThenValidate(g, q)
}

// Concurrent serving types (see internal/service).
type (
	// ServicePool is a concurrent query-serving pool: warm engines in a
	// sync.Pool over one shared Graph, batch fan-out with identical-query
	// deduplication, and per-(source partition, target partition,
	// checkpoint slot) result caching.
	ServicePool = service.Pool
	// PoolOptions tune a ServicePool; the zero value is a usable default
	// (ITG/S engines, GOMAXPROCS workers, 4096-entry cache). Set
	// WindowCache to additionally enable the validity-window temporal
	// result cache (internal/tcache): answers are stored with the
	// departure interval over which they provably stay the engine's
	// answer, so nearby departure times of the same OD pair are served
	// without a search. Set SkeletonCache to enable the point-free
	// door-to-door skeleton store (core.SkeletonFamily): a repeated miss
	// per (source partition, target partition, checkpoint slot) stores
	// the pair's door-sequence skeletons, and ANY later query between the
	// same partitions — different points, different departure inside
	// the slot — is answered by composing first leg + skeleton + last
	// leg, bit-identical to a fresh search or not at all. Set
	// SharedBatch to enable the shared-execution batch planner
	// (internal/batchplan): RouteBatch partitions each batch into
	// shared-endpoint groups and answers every group with a single
	// engine run (core.Engine.RouteMany / RouteManyTo) instead of one
	// search per query; with SkeletonCache it additionally coalesces
	// same-partition-pair leftovers so one member's search serves the
	// group through composition.
	PoolOptions = service.Options
	// PoolStats are cumulative pool counters.
	PoolStats = service.Stats
	// BatchResult is one ServicePool.RouteBatch outcome.
	BatchResult = service.Result
	// BatchSummary describes how one ServicePool.RouteBatchSummary call
	// was served: per-cache hit counts, engine runs actually executed,
	// and the shared-execution tallies.
	BatchSummary = service.BatchSummary
	// CacheHitKind is a result's cache provenance: HitMiss (engine
	// search), HitExact (exact-identity cache) or HitWindow
	// (validity-window cache, arrivals recomputed for the query's own
	// departure).
	CacheHitKind = service.Hit
)

// Cache provenance values reported in BatchResult.Hit (and as "hit" on
// the HTTP wire).
const (
	HitMiss   = service.HitMiss
	HitExact  = service.HitExact
	HitWindow = service.HitWindow
)

// NewPool builds a concurrent query-serving pool over a graph. Pool
// methods are safe for concurrent use from any number of goroutines;
// Pool.Route answers exactly as Engine.Route would, and Pool.RouteBatch
// fans a batch out over PoolOptions.Workers goroutines.
func NewPool(g *Graph, opts PoolOptions) *ServicePool { return service.New(g, opts) }

// Request-coalescing types (see internal/coalesce).
type (
	// Coalescer is the standing cross-batch request coalescer: solo
	// Route calls are held for a few milliseconds and flushed together
	// through one shared-execution batch, so shareable singleton
	// queries arriving on separate requests (same source point,
	// departure and speed — or a static shared destination) are
	// answered by ONE engine run. Every caller still receives exactly
	// the result a solo ServicePool.Route would have produced.
	Coalescer = coalesce.Coalescer
	// CoalescerOptions tune a Coalescer: the hold window (latency
	// bound) and the maximum group size per flush.
	CoalescerOptions = coalesce.Options
	// CoalescerStats are cumulative coalescer counters, including the
	// hold-time histogram.
	CoalescerStats = coalesce.Stats
)

// NewCoalescer builds a standing request coalescer over a pool. The
// pool should have PoolOptions.SharedBatch enabled — a flush is
// answered via RouteBatchSummary, and the batch planner's grouping is
// what turns held singletons into shared engine runs.
func NewCoalescer(p *ServicePool, opts CoalescerOptions) *Coalescer { return coalesce.New(p, opts) }

// Observability types (see internal/obs; served by GET /loadz and the
// "explain" / reasons surfaces).
type (
	// LoadRing is the lock-free rolling ring of per-second load
	// buckets every ServicePool feeds; LoadRing.Windows reads the
	// trailing windowed view (queries, hits, shareability, hold
	// utilization) in one pass.
	LoadRing = obs.LoadRing
	// LoadSample is one windowed (or per-operation) set of load
	// signals — the unit both fed into and read out of a LoadRing.
	LoadSample = obs.LoadSample
	// DecisionReason is a compact provenance code: why a query missed
	// the caches or why a plan member ran a dedicated engine search.
	// Its String form is the wire vocabulary ("no_exact_entry",
	// "outside_windows", "private_partition", ...).
	DecisionReason = obs.Reason
	// ReasonStats are cumulative per-reason counters (part of
	// PoolStats and the /statsz body).
	ReasonStats = service.ReasonStats
)

// LoadWindows are the trailing spans, in seconds, every windowed load
// view reports (10s, 1m, 5m).
var LoadWindows = obs.LoadWindows

// HTTP serving types (see internal/server and cmd/itspqd).
type (
	// Server is the HTTP/JSON front-end over a VenueRegistry: route,
	// batch, day-profile, live schedule-update, listing, health and
	// stats endpoints. It implements http.Handler.
	Server = server.Server
	// ServerOptions tune a Server (request timeout, batch and body
	// limits); the zero value is a usable default.
	ServerOptions = server.Options
	// VenueRegistry maps venue IDs to per-venue serving pools (one
	// ServicePool per engine method, all over one shared graph).
	VenueRegistry = server.Registry
	// ServedVenue is one registry entry: per-method pools plus the
	// atomic live schedule-update hook.
	ServedVenue = server.Venue
)

// NewVenueRegistry builds an empty venue registry; venues added later
// (Add, AddGraph, LoadDir, AddPresets) each get one serving pool per
// engine method configured from opts.
func NewVenueRegistry(opts PoolOptions) *VenueRegistry { return server.NewRegistry(opts) }

// NewServer builds the HTTP/JSON query server over a registry. The
// result is an http.Handler; cmd/itspqd wires it into an http.Server
// with graceful shutdown.
func NewServer(reg *VenueRegistry, opts ServerOptions) *Server { return server.New(reg, opts) }

// PresetVenue builds one built-in venue model by preset name (mall,
// hospital, office, figure1) — the same model `itspqd -preset` serves.
func PresetVenue(name string) (*Venue, error) { return server.PresetVenue(name) }

// Workload replay types (see internal/replay and cmd/itspqreplay).
type (
	// ReplayScenario is a declarative replay workload: a named phase
	// list over one preset venue plus self-check verdicts.
	ReplayScenario = replay.Scenario
	// ReplayOptions configure a replay run (target daemon URL, HTTP
	// client, quick marker, progress logging).
	ReplayOptions = replay.Options
	// ReplayReport is the structured outcome of one replay run — the
	// BENCH_replay.json artifact, verdicts included.
	ReplayReport = replay.Report
)

// BuiltinReplayScenario returns a built-in replay scenario by name
// (see ReplayScenarios); quick shrinks per-phase query counts 10x for
// smoke runs.
func BuiltinReplayScenario(name string, quick bool) (*ReplayScenario, error) {
	return replay.Builtin(name, quick)
}

// ReplayScenarios lists the built-in replay scenario names.
func ReplayScenarios() []string { return replay.Scenarios() }

// RunReplay replays a scenario against a live daemon and returns the
// report with its verdicts evaluated.
func RunReplay(sc *ReplayScenario, opts ReplayOptions) (*ReplayReport, error) {
	return replay.Run(sc, opts)
}

// Service-query types (indoor LBS layer).
type (
	// DistanceMap holds single-source valid shortest distances.
	DistanceMap = core.DistanceMap
	// Near is one k-nearest-partitions result.
	Near = core.Near
	// ProfileEntry is one checkpoint slot of a day profile.
	ProfileEntry = core.ProfileEntry
)

// SingleSource computes temporally valid shortest distances from src at
// time at to every reachable door and partition (speed 0 = 5 km/h).
func SingleSource(g *Graph, src Point, at TimeOfDay, speed float64) (*DistanceMap, error) {
	return core.SingleSource(g, src, at, speed)
}

// NearestPartitions returns the k nearest reachable partitions at the
// given time (nil filter = public rooms), sorted by valid distance.
func NearestPartitions(g *Graph, src Point, at TimeOfDay, k int, filter func(Partition) bool) ([]Near, error) {
	return core.NearestPartitions(g, src, at, k, filter)
}

// DayProfile answers the OD pair at the start of every checkpoint slot,
// summarising how reachability and length evolve over the day.
func DayProfile(e *Engine, src, tgt Point) ([]ProfileEntry, error) {
	return core.DayProfile(e, src, tgt)
}

// OracleShortest exhaustively finds the shortest valid simple path on
// small venues — a testing reference, exponential in venue size.
func OracleShortest(g *Graph, q Query) core.OracleResult { return core.OracleShortest(g, q) }

// Route is a convenience one-shot: build a graph and engine, answer one
// query with ITG/A. For repeated queries construct a Graph and Engine
// once and reuse them.
func Route(v *Venue, q Query) (*Path, error) {
	g, err := NewGraph(v)
	if err != nil {
		return nil, err
	}
	p, _, err := NewEngine(g, Options{Method: MethodAsyn}).Route(q)
	return p, err
}

// Synthetic data types.
type (
	// MallConfig parameterises the paper's synthetic mall generator.
	MallConfig = synth.MallConfig
	// Mall is a generated mall venue with harness handles.
	Mall = synth.Mall
	// ATIConfig controls temporal-variation generation.
	ATIConfig = synth.ATIConfig
	// QueryConfig controls δs2t-targeted query generation.
	QueryConfig = synth.QueryConfig
	// QueryInstance is a generated (source, target) pair.
	QueryInstance = synth.QueryInstance
	// PaperExample is the paper's Figure 1 / Table I running example.
	PaperExample = synth.PaperExample
)

// GenerateMall builds the paper's synthetic venue (141 partitions and
// 224 doors per floor; 5 floors by default).
func GenerateMall(cfg MallConfig) (*Mall, error) { return synth.GenerateMall(cfg) }

// GenerateQueries produces query instances whose static indoor distance
// approximates cfg.S2T, using the graph's distance matrices.
func GenerateQueries(m *Mall, g *Graph, cfg QueryConfig) ([]QueryInstance, error) {
	return synth.GenerateQueries(m, g.DM(), cfg)
}

// PaperFigure1 builds the paper's running-example venue.
func PaperFigure1() *PaperExample { return synth.PaperFigure1() }

// Hospital builds the hospital-wing preset (visiting hours, 24 h ER).
func Hospital() *Venue { return synth.Hospital() }

// Office builds the office-floor preset (core hours, one-way fire exit).
func Office() *Venue { return synth.Office() }

// Decomposition types.
type (
	// Decomposition is a rectilinear polygon split into cells + virtual
	// doors.
	Decomposition = decompose.Decomposition
)

// Decompose splits a rectilinear polygon into rectangular cells with
// virtual doors (the hallway decomposition of the paper's venue).
func Decompose(pg Polygon) (*Decomposition, error) { return decompose.Decompose(pg) }

// RenderSVG writes one floor of the venue as an SVG floor plan (the
// shape of the paper's Figure 1). A non-negative at colours doors by
// openness at that instant.
func RenderSVG(w io.Writer, v *Venue, floor int, at TimeOfDay) error {
	return render.WriteSVG(w, v, render.SVGOptions{Floor: floor, Labels: true, At: at})
}

// RenderDOT writes the venue's accessibility graph in Graphviz DOT form
// (the shape of the paper's Figure 2).
func RenderDOT(w io.Writer, v *Venue) error { return render.WriteDOT(w, v) }

// Experiment harness types.
type (
	// BenchConfig controls experiment scale.
	BenchConfig = bench.Config
	// FigureData is one regenerated figure.
	FigureData = bench.FigureData
)

// Experiment runners, one per paper figure (see EXPERIMENTS.md).
var (
	RunFig4     = bench.RunFig4
	RunFig5     = bench.RunFig5
	RunFig6And7 = bench.RunFig6And7
)

// RenderFigureTable renders a figure as an aligned text table.
func RenderFigureTable(fd *FigureData) string { return bench.RenderTable(fd) }

// RenderFigureCSV renders a figure as CSV.
func RenderFigureCSV(fd *FigureData) string { return bench.RenderCSV(fd) }
