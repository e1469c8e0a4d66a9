package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/itgraph"
)

// answerTolerance bounds float differences between a served and a
// reference answer. Engine arithmetic is deterministic and JSON
// round-trips float64 exactly, so matches are normally exact.
const answerTolerance = 1e-6

// oracle is the sequential reference: fresh core engines over locally
// built graphs, one graph per distinct schedule state.
type oracle struct {
	// graphs[0] carries the base schedules; on flips graphs[1] carries
	// the state after an odd number of updates (an even number restores
	// the base schedules).
	graphs []*itgraph.Graph
	memo   map[oracleKey]answer
	// tieBudget bounds the time one check spends on OracleShortest.
	tieBudget time.Duration
}

type oracleKey struct {
	graph  int
	method string
	q      core.Query
}

func newOracle(c *venueCtx, w *workload, tieBudget time.Duration) (*oracle, error) {
	o := &oracle{graphs: []*itgraph.Graph{c.g}, memo: map[oracleKey]answer{}, tieBudget: tieBudget}
	if len(w.updates) > 0 {
		parsed, err := parseUpdate(c.v, w.updates[0])
		if err != nil {
			return nil, err
		}
		v2, err := c.v.WithSchedules(parsed)
		if err != nil {
			return nil, err
		}
		g2, err := itgraph.New(v2)
		if err != nil {
			return nil, err
		}
		o.graphs = append(o.graphs, g2)
	}
	return o, nil
}

// states lists the oracle graphs a record's answers may legally come
// from: every schedule state between the updates acknowledged before
// the request was sent and the updates initiated before it was
// answered.
func (o *oracle) states(r *record, applied int) []int {
	lo, hi := r.lo, min(r.hi, applied)
	var out []int
	for s := lo; s <= hi; s++ {
		if g := s % len(o.graphs); !slices.Contains(out, g) {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		out = append(out, lo%len(o.graphs))
	}
	return out
}

// solve computes the reference answer of every (state, query) the
// records need that is not memoised yet, on GOMAXPROCS workers with
// one engine per worker, graph and method.
func (o *oracle) solve(recs []*record, applied int) {
	var keys []oracleKey
	seen := map[oracleKey]bool{}
	for _, r := range recs {
		for _, g := range o.states(r, applied) {
			for _, q := range r.queries {
				k := oracleKey{g, r.method, q}
				if _, ok := o.memo[k]; !ok && !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	engines := make([]map[[2]any]*core.Engine, runtime.GOMAXPROCS(0))
	for i := range engines {
		engines[i] = map[[2]any]*core.Engine{}
	}
	got := make([]answer, len(keys))
	parallel(len(keys), func(worker, i int) {
		k := keys[i]
		ek := [2]any{k.graph, k.method}
		e, ok := engines[worker][ek]
		if !ok {
			e = core.NewEngine(o.graphs[k.graph], core.Options{Method: methods[k.method]})
			engines[worker][ek] = e
		}
		path, _, err := e.Route(k.q)
		switch {
		case errors.Is(err, core.ErrNoRoute):
		case err != nil:
			got[i] = answer{fail: err.Error()}
		default:
			got[i] = answer{found: true, doors: path.Doors, length: path.Length, arrive: float64(path.ArrivalAtTgt)}
		}
	})
	for i, k := range keys {
		o.memo[k] = got[i]
	}
}

// match classifies a served answer against one state's reference.
type match int

const (
	matchNone match = iota
	// matchStrict: found/no-route, door sequence, length and arrival
	// all agree.
	matchStrict
	// matchTie: length and arrival agree within answerTolerance but the
	// door sequence differs — another path of the same length.
	matchTie
)

func (o *oracle) match(graph int, method string, q core.Query, got answer) match {
	want := o.memo[oracleKey{graph, method, q}]
	switch {
	case want.fail != "" || want.found != got.found:
		return matchNone
	case !want.found:
		return matchStrict
	case math.Abs(want.length-got.length) > answerTolerance || math.Abs(want.arrive-got.arrive) > answerTolerance:
		return matchNone
	case slices.Equal(want.doors, got.doors):
		return matchStrict
	}
	return matchTie
}

// maxOracleTies and the oracle's tieBudget bound the ties per pass
// checked against the exhaustive OracleShortest, which costs tens of
// milliseconds per query on the mall and far more on a few: the first
// ties in stream order are checked until the budget is spent.
const maxOracleTies = 32

// verdict is the outcome of checking one pass.
type verdict struct {
	// attempted, failed and wrong count timed requests; a request is
	// wrong when any of its answers is wrong, failed when any answer is
	// an error and none is wrong.
	attempted, failed, wrong int
	// allWrong counts wrong requests including the warm-up.
	allWrong int
	// ties counts answers matched as ties; tiesChecked those checked
	// against OracleShortest; tiesInexact those whose length differs
	// from the reference's in its last bits (within answerTolerance).
	ties, tiesChecked, tiesInexact int
	samples                        []string
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.wrong += o.wrong
	v.allWrong += o.allWrong
	v.ties += o.ties
	v.tiesChecked += o.tiesChecked
	v.tiesInexact += o.tiesInexact
	v.samples = append(v.samples, o.samples...)
}

// check compares every answer of a pass (warm-up included) with the
// sequential reference. Found/no-route, door sequence and length must
// match under some legal schedule state. A different door sequence of
// equal length is a tie: for the temporal methods its length must also
// equal OracleShortest's (checked for the first maxOracleTies ties);
// the static method ignores schedules, so the reference length decides.
func (o *oracle) check(p *passResult) verdict {
	o.solve(p.recs, p.updates)
	type tie struct {
		rec    int
		graph  int
		method string
		q      core.Query
		length float64
	}
	var v verdict
	var ties []tie
	wrongRec := make([]bool, len(p.recs))
	failedRec := make([]bool, len(p.recs))
	for ri, r := range p.recs {
		states := o.states(r, p.updates)
		for j, got := range r.answers {
			if got.fail != "" {
				failedRec[ri] = true
				if len(v.samples) < 5 {
					v.samples = append(v.samples, "failed: "+got.fail)
				}
				continue
			}
			best, bestGraph := matchNone, 0
			for _, g := range states {
				if m := o.match(g, r.method, r.queries[j], got); m > best {
					best, bestGraph = m, g
				}
			}
			switch best {
			case matchNone:
				wrongRec[ri] = true
				if len(v.samples) < 5 {
					v.samples = append(v.samples, fmt.Sprintf("wrong: %s %+v served found=%t len=%.6f doors=%v",
						r.method, r.queries[j], got.found, got.length, got.doors))
				}
			case matchTie:
				v.ties++
				if o.memo[oracleKey{bestGraph, r.method, r.queries[j]}].length != got.length {
					v.tiesInexact++
				}
				if r.method != "static" && len(ties) < maxOracleTies {
					ties = append(ties, tie{ri, bestGraph, r.method, r.queries[j], got.length})
				}
			}
		}
	}
	// OracleShortest cannot be interrupted: checks still running when
	// the budget is spent are abandoned (they end with the process, and
	// checking is the last thing a run does) and counted as unchecked.
	type checkedTie struct {
		i   int
		res core.OracleResult
	}
	results := make(chan checkedTie, len(ties)) // never blocks an abandoned check
	go parallel(len(ties), func(_, i int) {
		results <- checkedTie{i, core.OracleShortest(o.graphs[ties[i].graph], ties[i].q)}
	})
	shortest := make([]*core.OracleResult, len(ties))
	timeout := time.After(o.tieBudget)
collect:
	for range ties {
		select {
		case c := <-results:
			shortest[c.i] = &c.res
		case <-timeout:
			break collect
		}
	}
	for i, t := range ties {
		if shortest[i] == nil {
			continue
		}
		v.tiesChecked++
		if !shortest[i].Found || math.Abs(shortest[i].Length-t.length) > answerTolerance {
			wrongRec[t.rec] = true
			v.samples = append(v.samples, fmt.Sprintf("wrong: %s %+v tie of length %.6f, OracleShortest %.6f",
				t.method, t.q, t.length, shortest[i].Length))
		}
	}
	for ri, r := range p.recs {
		if wrongRec[ri] {
			v.allWrong++
		}
		if r.warm {
			continue
		}
		v.attempted++
		switch {
		case wrongRec[ri]:
			v.wrong++
		case failedRec[ri]:
			v.failed++
		}
	}
	return v
}
