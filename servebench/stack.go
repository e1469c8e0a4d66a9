package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"indoorpath/internal/server"
	"indoorpath/internal/service"
)

// stackConfig is the serving stack every pass boots: the full stack,
// configured the way cmd/itspqreplay self-hosts it — window cache,
// skeleton cache, shared batch and coalescer all on. It is the one
// place the benchmark sets a serving knob.
var stackConfig = struct {
	Pool   service.Options
	Server server.Options
}{
	Pool:   service.Options{WindowCache: true, SkeletonCache: true, SharedBatch: true},
	Server: server.Options{Coalesce: true},
}

// venueID is the preset the benchmark serves: the paper's 5-floor
// synthetic mall.
const venueID = "mall"

// stack is one booted serving stack: registry, pools and handler, and
// optionally a loopback listener with the client that drives it.
type stack struct {
	reg    *server.Registry
	srv    *server.Server
	venue  *server.Venue
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string
	client *http.Client
}

// bootStack builds the venue model, IT-Graph and registry pools. With
// listen it also serves the handler on a loopback listener and builds
// a client limited to conns connections.
func bootStack(listen bool, conns int) (*stack, error) {
	reg := server.NewRegistry(stackConfig.Pool)
	if _, err := reg.AddPresets(venueID); err != nil {
		return nil, err
	}
	ve, ok := reg.Get(venueID)
	if !ok {
		return nil, fmt.Errorf("preset %s not registered", venueID)
	}
	st := &stack{reg: reg, srv: server.New(reg, stackConfig.Server), venue: ve}
	if !listen {
		return st, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.hs = &http.Server{Handler: st.srv, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	return st, nil
}

// close stops the listener and waits for the serve loop to exit.
func (st *stack) close() {
	if st.hs == nil {
		return
	}
	_ = st.hs.Close() // closes the listener and every connection
	<-st.served
	st.client.CloseIdleConnections()
}

// post sends one JSON request and decodes a 200 answer into out.
func post(c *http.Client, method, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// measureSetup boots the listening stack n times, each timed from the
// first model build until its first route answers, and returns the
// median in seconds together with the last stack, which the caller
// keeps and must close.
func measureSetup(n, conns int, probe server.RouteRequest) (float64, *stack, error) {
	var secs []float64
	var st *stack
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = bootStack(true, conns); err != nil {
			return 0, nil, err
		}
		var resp server.RouteResponse
		if err := post(st.client, http.MethodPost, st.base+"/v1/venues/"+venueID+"/route", probe, &resp); err != nil {
			st.close()
			return 0, nil, fmt.Errorf("first route: %w", err)
		}
		if !resp.Found {
			st.close()
			return 0, nil, errors.New("first route: probe query found no route")
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	sort.Float64s(secs)
	return quantile(secs, 0.5), st, nil
}
