package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/core"
	"indoorpath/internal/model"
	"indoorpath/internal/server"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// answer is one outcome in comparable form: served by a layer of the
// stack, or computed by the sequential reference engine.
type answer struct {
	found  bool
	doors  []model.DoorID
	length float64
	arrive float64
	// hit is the serving provenance: exact, window, skeleton or miss;
	// why is a miss's reason (pool targets only).
	hit, why string
	// fail is non-empty when the layer answered with an error: a
	// transport error, a non-2xx status or an error document.
	fail string
}

// target is one layer of the stack a pass sends its requests to.
type target interface {
	route(method string, q core.Query) answer
	batch(method string, qs []core.Query) []answer
	update(u map[string][]string) error
}

var methods = map[string]core.Method{"syn": core.MethodSyn, "asyn": core.MethodAsyn, "static": core.MethodStatic}

// wireTarget speaks the HTTP API: over the loopback listener, or by
// calling Server.ServeHTTP on a recorder when handler is set.
type wireTarget struct {
	st      *stack
	handler bool
}

func (t *wireTarget) send(method, path string, in, out any) error {
	if !t.handler {
		return post(t.st.client, method, t.st.base+path, in, out)
	}
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t.st.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// wireTime renders a whole-second departure in the wire's H:MM:SS.
func wireTime(t temporal.TimeOfDay) string {
	s := int(t)
	return fmt.Sprintf("%d:%02d:%02d", s/3600, s/60%60, s%60)
}

func routeRequest(method string, q core.Query) server.RouteRequest {
	return server.RouteRequest{
		From:   &server.PointDoc{X: q.Source.X, Y: q.Source.Y, Floor: q.Source.Floor},
		To:     &server.PointDoc{X: q.Target.X, Y: q.Target.Y, Floor: q.Target.Floor},
		At:     wireTime(q.At),
		Method: method,
		Speed:  q.Speed,
	}
}

// wireAnswer maps a route response onto an answer; door names are
// stable across schedule updates, so the stack's current model
// resolves them.
func (t *wireTarget) wireAnswer(r server.RouteResponse) answer {
	if r.Error != nil {
		return answer{fail: r.Error.Code + ": " + r.Error.Message}
	}
	a := answer{found: r.Found, hit: r.Hit}
	if !r.Found {
		return a
	}
	if r.Path == nil {
		return answer{fail: "found without a path"}
	}
	v := t.st.venue.Model()
	a.length, a.arrive = r.Path.LengthM, r.Path.ArriveSec
	a.doors = make([]model.DoorID, len(r.Path.Doors))
	for i, d := range r.Path.Doors {
		id, ok := v.DoorByName(d.Door)
		if !ok {
			return answer{fail: "unknown door " + d.Door}
		}
		a.doors[i] = id
	}
	return a
}

func (t *wireTarget) route(method string, q core.Query) answer {
	var resp server.RouteResponse
	if err := t.send(http.MethodPost, "/v1/venues/"+venueID+"/route", routeRequest(method, q), &resp); err != nil {
		return answer{fail: err.Error()}
	}
	return t.wireAnswer(resp)
}

func (t *wireTarget) batch(method string, qs []core.Query) []answer {
	req := server.BatchRequest{Method: method, Queries: make([]server.RouteRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = routeRequest("", q)
	}
	var resp server.BatchResponse
	err := t.send(http.MethodPost, "/v1/venues/"+venueID+"/route:batch", req, &resp)
	if err == nil && len(resp.Results) != len(qs) {
		err = fmt.Errorf("batch of %d answered with %d results", len(qs), len(resp.Results))
	}
	out := make([]answer, len(qs))
	for i := range out {
		if err != nil {
			out[i] = answer{fail: err.Error()}
		} else {
			out[i] = t.wireAnswer(resp.Results[i])
		}
	}
	return out
}

func (t *wireTarget) update(u map[string][]string) error {
	var resp server.SchedulesResponse
	return t.send(http.MethodPut, "/v1/venues/"+venueID+"/schedules", server.SchedulesRequest{Updates: u}, &resp)
}

// poolTarget calls the venue's method pools directly, through a
// standing coalescer per method when coal is set (as the server does
// for solo routes). Batches always go to the pool, as the server does.
type poolTarget struct {
	ve   *server.Venue
	coal map[string]*coalesce.Coalescer
}

func newPoolTarget(st *stack, withCoalescer bool) *poolTarget {
	t := &poolTarget{ve: st.venue}
	if withCoalescer {
		t.coal = map[string]*coalesce.Coalescer{}
		for name, m := range methods {
			t.coal[name] = coalesce.New(st.venue.Pool(m), coalesce.Options{
				Hold:     stackConfig.Server.CoalesceHold,
				MaxGroup: stackConfig.Server.CoalesceMaxGroup,
			})
		}
	}
	return t
}

// resultAnswer maps a pool result onto an answer.
func resultAnswer(r service.Result) answer {
	switch {
	case errors.Is(r.Err, core.ErrNoRoute):
		return answer{hit: string(r.Hit), why: r.Explain.String()}
	case r.Err != nil:
		return answer{fail: r.Err.Error()}
	}
	return answer{found: true, doors: r.Path.Doors, length: r.Path.Length, arrive: float64(r.Path.ArrivalAtTgt),
		hit: string(r.Hit), why: r.Explain.String()}
}

func (t *poolTarget) route(method string, q core.Query) answer {
	if t.coal != nil {
		return resultAnswer(t.coal[method].Route(q))
	}
	return resultAnswer(t.ve.Pool(methods[method]).RouteResult(q))
}

func (t *poolTarget) batch(method string, qs []core.Query) []answer {
	rs, _ := t.ve.Pool(methods[method]).RouteBatchSummary(qs)
	out := make([]answer, len(rs))
	for i, r := range rs {
		out[i] = resultAnswer(r)
	}
	return out
}

func (t *poolTarget) update(u map[string][]string) error {
	parsed, err := parseUpdate(t.ve.Model(), u)
	if err != nil {
		return err
	}
	_, err = t.ve.UpdateSchedules(parsed)
	return err
}

// parseUpdate converts a wire schedule update to door schedules with
// the wire's conventions: nil is always open, empty always closed.
func parseUpdate(v *model.Venue, u map[string][]string) (map[model.DoorID]temporal.Schedule, error) {
	out := make(map[model.DoorID]temporal.Schedule, len(u))
	for name, atis := range u {
		id, ok := v.DoorByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown door %q", name)
		}
		if atis == nil {
			out[id] = nil
			continue
		}
		ivs := make([]temporal.Interval, len(atis))
		for i, s := range atis {
			iv, err := temporal.ParseInterval(s)
			if err != nil {
				return nil, err
			}
			ivs[i] = iv
		}
		sched, err := temporal.NewSchedule(ivs...)
		if err != nil {
			return nil, err
		}
		out[id] = sched
	}
	return out, nil
}
