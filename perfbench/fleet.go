package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecachesync"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/pkg/coest"
	"repro/pkg/coest/coestapi"
)

const (
	// fleetRate is the open-loop arrival rate, requests per second; it
	// keeps the 2-connection client well below saturation.
	fleetRate = 20
	// fleetConns is the client's connection count (one per worker).
	fleetConns = 2
	// fleetLimit is the latency limit of goodput, from the due time.
	fleetLimit = 250 * time.Millisecond
	// syncInterval is the shards' energy-cache write-behind period.
	syncInterval = time.Second
	// ecacheTol bounds a warm energy-cache answer's relative distance from
	// the full-fidelity library estimate of the same design and point.
	ecacheTol = 0.02
)

// design is one /estimate subject; packets applies to tcpip only.
type design struct {
	system  string
	packets int
}

var fleetDesigns = []design{
	{"tcpip", 2}, {"tcpip", 4}, {"tcpip", 8}, {"tcpip", 12}, {"prodcons", 0}, {"automotive", 0},
}

func (d design) build() (*coest.System, error) {
	if d.system == "tcpip" {
		p := coest.DefaultTCPIPParams()
		p.Packets = d.packets
		return coest.TCPIP(p), nil
	}
	return coest.BySystemName(d.system)
}

// fleetReq is one request of the mix: a design, a technique and its DMA
// points (one, or the whole axis for a batch).
type fleetReq struct {
	design int
	tech   string // "full", "ecache" or "macro"
	dmas   []int
}

func (q fleetReq) wire() coestapi.Request {
	d := fleetDesigns[q.design]
	r := coestapi.Request{Version: coestapi.Version, System: d.system, Packets: d.packets}
	for _, dma := range q.dmas {
		r.Points = append(r.Points, coestapi.PointSpec{DMASize: dma, ECache: q.tech == "ecache", Macro: q.tech == "macro"})
	}
	return r
}

// mixCycle is one round of the request mix: per design and DMA size four
// macro points, one energy-cache point and one full point, plus one
// energy-cache batch over the whole DMA axis per design. The deck repeats
// the cycle, each copy shuffled by the seed, so every seed offers the same
// load in a different order. The weights put the median inside the dense
// cluster of cheap macro answers and the 95th percentile inside the
// 12-packet full/ecache cluster, not on a gap between request classes,
// where a quantile jumps with small shifts in timing.
func mixCycle() []fleetReq {
	var out []fleetReq
	for d := range fleetDesigns {
		for _, dma := range dmaSizes {
			for _, tech := range []string{"macro", "macro", "macro", "macro", "ecache", "full"} {
				out = append(out, fleetReq{design: d, tech: tech, dmas: []int{dma}})
			}
		}
		out = append(out, fleetReq{design: d, tech: "ecache", dmas: dmaSizes})
	}
	return out
}

func deck(rng *rand.Rand, n int) []fleetReq {
	cycle := mixCycle()
	out := make([]fleetReq, 0, n+len(cycle))
	for len(out) < n {
		c := append([]fleetReq(nil), cycle...)
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		out = append(out, c...)
	}
	return out[:n]
}

type refKey struct {
	design int
	dma    int
	tech   string
}

// fleetReference computes the library estimate of every design at every
// DMA size, full fidelity and macro-model, on one session per design.
func fleetReference(ctx context.Context) (map[refKey]cellOut, error) {
	ref := map[refKey]cellOut{}
	for d, des := range fleetDesigns {
		sys, err := des.build()
		if err != nil {
			return nil, err
		}
		sess, err := coest.NewSession(sys)
		if err != nil {
			return nil, fmt.Errorf("reference %+v: %w", des, err)
		}
		for _, dma := range dmaSizes {
			for _, tech := range []string{"full", "macro"} {
				opts := []coest.Option{coest.WithDMASize(dma)}
				if tech == "macro" {
					opts = append(opts, coest.WithMacroModel())
				}
				rep, err := sess.Estimate(ctx, opts...)
				if err != nil {
					return nil, fmt.Errorf("reference %+v dma %d %s: %w", des, dma, tech, err)
				}
				ref[refKey{d, dma, tech}] = outOf(rep)
			}
		}
	}
	return ref, nil
}

// wireOut is the part of a wire answer that is checked.
func wireOut(p coestapi.PointResult) cellOut {
	return cellOut{EnergyJ: p.TotalJ, ISSCalls: p.ISSCalls, ISSInsts: p.ISSInsts}
}

// checkAnswer checks every point of an answer against the library
// reference and returns the accelerated points' relative energy errors.
func checkAnswer(ref map[refKey]cellOut, q fleetReq, resp *coestapi.Response) ([]float64, error) {
	if len(resp.Points) != len(q.dmas) {
		return nil, fmt.Errorf("%d points answered, %d asked", len(resp.Points), len(q.dmas))
	}
	var errs []float64
	for i, p := range resp.Points {
		if p.Error != "" {
			return nil, fmt.Errorf("point %d: %s", i, p.Error)
		}
		tech := q.tech
		if resp.Degraded {
			tech = "macro"
		}
		full := ref[refKey{q.design, q.dmas[i], "full"}]
		have := wireOut(p)
		rel := math.Abs(have.EnergyJ-full.EnergyJ) / full.EnergyJ
		switch tech {
		case "ecache":
			if rel > ecacheTol {
				return nil, fmt.Errorf("point %d: ecache energy %g J is %.3g%% from full %g J", i, have.EnergyJ, rel*100, full.EnergyJ)
			}
		default:
			want := ref[refKey{q.design, q.dmas[i], tech}]
			want.GateExecs = 0 // not on the wire
			if have != want {
				return nil, fmt.Errorf("point %d (%s): have %+v, library %+v", i, tech, have, want)
			}
		}
		if tech != "full" {
			errs = append(errs, rel)
		}
	}
	return errs, nil
}

// fleet is an in-process coest-router in front of coestd shards, all on
// loopback listeners.
type fleet struct {
	url     string
	shards  []string // shard base URLs, for their /debug/requests rings
	rt      *router.Router
	nodes   []*serve.Server
	servers []*http.Server
	clients []*http.Client
	wg      sync.WaitGroup
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet boots the router front door first (the shards need its
// cache-sync URL), then the shards, then the router over them.
func startFleet(ctx context.Context, names []string) (*fleet, error) {
	f := &fleet{}
	var front atomic.Value // http.Handler once the router exists
	url, err := f.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, ok := front.Load().(http.Handler); ok {
			h.ServeHTTP(w, r)
			return
		}
		http.Error(w, "router starting", http.StatusServiceUnavailable)
	}))
	if err != nil {
		return nil, err
	}
	f.url = url
	storeClient, routerClient := newClient(8), newClient(16)
	f.clients = append(f.clients, storeClient, routerClient)
	var shards []router.Shard
	for _, name := range names {
		srv := serve.New(serve.Config{
			ShardName:          name,
			ECacheStore:        &ecachesync.HTTPStore{URL: url + "/ecache/sync", Client: storeClient},
			ECacheSyncInterval: syncInterval,
		})
		f.nodes = append(f.nodes, srv)
		u, err := f.serve(srv)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, u)
		shards = append(shards, router.Shard{Name: name, URL: u})
	}
	rt, err := router.New(router.Config{Shards: shards, Client: routerClient})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rt = rt
	front.Store(http.Handler(rt))
	rt.CheckNow(ctx)
	return f, nil
}

// stop drains the shards (their final cache-sync round still reaches the
// router), then closes every listener and waits for the servers.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, s := range f.nodes {
		_ = s.Drain(ctx) // a drain that times out only delays exit
	}
	if f.rt != nil {
		f.rt.Stop()
	}
	for _, srv := range f.servers {
		_ = srv.Shutdown(ctx)
	}
	f.wg.Wait()
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
}

// post sends one /estimate and decodes a 200 answer.
func post(ctx context.Context, c *http.Client, url string, body []byte) (*coestapi.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/estimate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out coestapi.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	return &out, nil
}

// warmRounds is how many times warm replays every energy-cache point.
const warmRounds = 2

// warm compiles every design's session on its owner shard and
// characterizes the macro tables (one full and one macro batch per
// design), then fills the energy caches. A cached path is served once it
// has a few observations of low spread, so which paths end up cached
// depends on the order they are observed in; warm sends the cache points
// one at a time in a fixed order and syncs after each round, so every run
// and seed starts its load from the same cache state. Wrong answers count
// as failed operations in res.
func (f *fleet) warm(ctx context.Context, ref map[refKey]cellOut, res *result) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	send := func(q fleetReq) error {
		body, err := json.Marshal(q.wire())
		if err != nil {
			return err
		}
		resp, err := post(ctx, c, f.url, body)
		if err != nil {
			return fmt.Errorf("warm %+v %s: %w", fleetDesigns[q.design], q.tech, err)
		}
		res.attempted++
		if _, err := checkAnswer(ref, q, resp); err != nil {
			res.failed++
			res.notef("warm %+v %s: %v", fleetDesigns[q.design], q.tech, err)
		}
		return nil
	}
	for d := range fleetDesigns {
		for _, tech := range []string{"full", "macro"} {
			if err := send(fleetReq{design: d, tech: tech, dmas: dmaSizes}); err != nil {
				return err
			}
		}
	}
	for round := 0; round < warmRounds; round++ {
		for d := range fleetDesigns {
			for _, dma := range dmaSizes {
				if err := send(fleetReq{design: d, tech: "ecache", dmas: []int{dma}}); err != nil {
					return err
				}
			}
		}
		for _, s := range f.nodes {
			if err := s.ECacheSyncNow(ctx); err != nil {
				return fmt.Errorf("warm cache sync: %w", err)
			}
		}
	}
	return nil
}

// halves splits the requests of a traced run: the occurrences of each
// request class alternate between the traced half (1) and the untraced
// half (0). The last occurrence of a class seen an odd number of times is
// in neither (-1), so both halves carry exactly the same mix.
func halves(reqs []fleetReq) []int {
	total := map[string]int{}
	for _, q := range reqs {
		total[fmt.Sprint(q)]++
	}
	seen := map[string]int{}
	out := make([]int, len(reqs))
	for i, q := range reqs {
		k := fmt.Sprint(q)
		n := seen[k]
		seen[k]++
		out[i] = 1 - n%2
		if n%2 == 0 && n == total[k]-1 {
			out[i] = -1
		}
	}
	return out
}

// outcome is one open-loop request's result.
type outcome struct {
	sample
	ok       bool // 200, every point correct
	half     int  // traced run: 1 traced, 0 untraced, -1 in neither half
	degraded bool
	points   int
	errs     []float64
	err      error
}

// drive sends the deck on its open-loop schedule over fleetConns
// connections. A request is handed to the first free connection; when
// both are busy the generator waits, and the request's latency (from its
// due time) includes that wait.
func (f *fleet) drive(ctx context.Context, ref map[refKey]cellOut, reqs []fleetReq, due []time.Duration, col *collector) []outcome {
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		bodies[i], _ = json.Marshal(q.wire()) // plain structs: cannot fail
	}
	var scope *telemetry.SpanScope
	if col != nil {
		scope = telemetry.NewSpanScope(col, telemetry.NewTraceID())
	}
	var half []int
	if scope != nil {
		half = halves(reqs)
	}
	out := make([]outcome, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < fleetConns; w++ {
		c := newClient(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.CloseIdleConnections()
			for i := range jobs {
				o := &out[i]
				o.due, o.sent = due[i], time.Since(start)
				rctx := ctx
				o.half = -1
				if half != nil {
					o.half = half[i]
				}
				if o.half == 1 {
					rctx = telemetry.ContextWithSpanScope(ctx, scope)
				}
				rctx, sp := telemetry.StartSpanWith(rctx, "bench.request", reqs[i].tech, int64(i))
				resp, err := post(rctx, c, f.url, bodies[i])
				sp.End()
				o.done = time.Since(start)
				o.points = len(reqs[i].dmas)
				if err == nil {
					o.degraded = resp.Degraded
					o.errs, err = checkAnswer(ref, reqs[i], resp)
				}
				o.ok, o.err = err == nil, err
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(due[i])); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// getJSON decodes a 200 answer to a GET.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// shardSpans reads the /estimate traces each shard still holds in its
// /debug/requests ring (the most recent ones) and returns the mean time
// per estimated point spent in the program's point, gate and iss spans.
// Traces that dropped spans are skipped.
func (f *fleet) shardSpans(ctx context.Context) (pointMS, gateMS, issMS float64, err error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var points, pointNS, gateNS, issNS float64
	for _, u := range f.shards {
		var list []struct {
			Trace string `json:"trace"`
			Path  string `json:"path"`
		}
		if err := getJSON(ctx, c, u+"/debug/requests", &list); err != nil {
			return 0, 0, 0, err
		}
		for _, t := range list {
			if t.Path != "/estimate" {
				continue
			}
			var tr serve.RequestTrace
			if err := getJSON(ctx, c, u+"/debug/requests?trace="+t.Trace, &tr); err != nil {
				return 0, 0, 0, err
			}
			if tr.Dropped > 0 {
				continue
			}
			for _, s := range tr.Spans {
				if s.DurNS < 0 {
					continue
				}
				switch s.Name {
				case "point":
					points++
					pointNS += float64(s.DurNS)
				case "gate":
					gateNS += float64(s.DurNS)
				case "iss":
					issNS += float64(s.DurNS)
				}
			}
		}
	}
	per := func(ns float64) float64 { return ratio(ns, points) / 1e6 }
	return per(pointNS), per(gateNS), per(issNS), nil
}

// registry deltas over the measured window.
type counterMark struct {
	c  *telemetry.Counter
	v0 uint64
}

func markCounter(name string) counterMark {
	c := telemetry.Default.Counter(name, "")
	return counterMark{c, c.Value()}
}

func (m counterMark) delta() float64 { return float64(m.c.Value() - m.v0) }

type histMark struct {
	h  *telemetry.Histogram
	n0 uint64
	s0 float64
}

func markHist(name string) histMark {
	h := telemetry.Default.Histogram(name, "", nil)
	return histMark{h, h.Count(), h.Sum()}
}

// meanMS is the mean observation in the window, in milliseconds.
func (m histMark) meanMS() float64 {
	return ratio((m.h.Sum()-m.s0)*1000, float64(m.h.Count()-m.n0))
}

// runFleet boots the fleet and warms it (repeated for setup_s), then
// drives the open-loop schedule for the run length.
func runFleet(ctx context.Context, rc runConfig) (*result, error) {
	res := newResult()
	var setups []float64
	var f *fleet
	var ref map[refKey]cellOut
	var spent time.Duration
	for i := 0; moreSetups(i, spent); i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		r, err := fleetReference(ctx)
		if err != nil {
			return nil, err
		}
		if f, err = startFleet(ctx, []string{"a", "b"}); err != nil {
			return nil, err
		}
		if err := f.warm(ctx, r, res); err != nil {
			f.stop()
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		res.attempted += len(r)
		if ref == nil {
			ref = r
			continue
		}
		for k, v := range r {
			if ref[k] != v {
				res.failed++
				res.notef("reference %+v not deterministic: %+v vs %+v", k, v, ref[k])
			}
		}
	}
	defer f.stop()

	rng := rand.New(rand.NewSource(rc.seed))
	n := int(fleetRate * rc.seconds.Seconds())
	reqs := deck(rng, n)
	due := arrivals(rng, n, rc.seconds)

	counters := map[string]counterMark{}
	for _, name := range []string{
		"coest_gate_cycles_total", "coest_gate_evals_total", "coest_iss_calls_total", "coest_iss_insts_total",
		"coest_bus_grants_total", "coest_bus_words_total", "coest_rtos_dispatches_total",
		"coest_ecache_lookups_total", "coest_ecache_hits_total",
		"serve_requests_total", "serve_warm_hits_total",
		"router_retries_total", "router_hedges_total", "router_failovers_total",
		"ecachesync_syncs_total", "ecachesync_sync_nanos_total", "ecachesync_paths_pushed_total", "ecachesync_paths_pulled_total",
	} {
		counters[name] = markCounter(name)
	}
	hists := map[string]histMark{}
	for _, name := range []string{
		"serve_stage_admission_seconds", "serve_stage_session_seconds", "serve_stage_sweep_seconds",
		"serve_stage_respond_seconds", "serve_request_seconds", "serve_endpoint_estimate_seconds",
	} {
		hists[name] = markHist(name)
	}
	var col *collector
	if rc.trace {
		col = newCollector()
	}
	t0 := time.Now()
	outs := f.drive(ctx, ref, reqs, due, col)
	elapsed := time.Since(t0).Seconds()

	var lat, lags, errs []float64
	var good, points, degraded int
	var serviceNS [2]float64 // by half: untraced, traced
	for i, o := range outs {
		res.attempted++
		lat = append(lat, float64(o.latency())/1e6)
		lags = append(lags, float64(o.lag())/1e6)
		if o.half >= 0 {
			serviceNS[o.half] += float64(o.service())
		}
		if !o.ok {
			res.failed++
			res.notef("request %d (%+v %s): %v", i, fleetDesigns[reqs[i].design], reqs[i].tech, o.err)
			continue
		}
		points += o.points
		errs = append(errs, o.errs...)
		if o.degraded {
			degraded++
		} else if o.latency() <= fleetLimit {
			good++
		}
	}
	if !rc.trace {
		sorted := sortedCopy(lat)
		tail := tailOf(len(sorted))
		res.tailNote(tail, len(sorted))
		var errSum float64
		for _, e := range errs {
			errSum += e
		}
		res.set("setup_s", median(setups))
		res.set("cells_per_s", float64(points)/elapsed)
		res.set("goodput_rps", float64(good)/elapsed)
		res.set("energy_err_pct", ratio(errSum, float64(len(errs)))*100)
		res.set("latency_ms_p50", percentile(sorted, 50))
		res.set("latency_ms_tail", percentile(sorted, tail))
		res.set("rss_peak_mb", rssPeakMiB())
		return res, nil
	}

	d := func(name string) float64 { return counters[name].delta() }
	pts := float64(points)
	reqN := float64(len(outs))
	var svcMeanMS float64
	for _, o := range outs {
		svcMeanMS += float64(o.service()) / 1e6
	}
	svcMeanMS /= reqN
	pl := res.layers()
	pl.set("gate.cycles", d("coest_gate_cycles_total")/pts)
	pl.set("gate.evals", d("coest_gate_evals_total")/pts)
	pl.set("gate.evals_per_cycle", ratio(d("coest_gate_evals_total"), d("coest_gate_cycles_total")))
	pl.set("iss.calls", d("coest_iss_calls_total")/pts)
	pl.set("iss.insts", d("coest_iss_insts_total")/pts)
	pl.set("rtos.dispatches", d("coest_rtos_dispatches_total")/pts)
	pl.set("bus.grants", d("coest_bus_grants_total")/pts)
	pl.set("bus.words", d("coest_bus_words_total")/pts)
	pl.set("ecache.lookups", d("coest_ecache_lookups_total")/pts)
	pl.set("ecache.hit_ratio", ratio(d("coest_ecache_hits_total"), d("coest_ecache_lookups_total")))
	pointMS, gateMS, issMS, err := f.shardSpans(ctx)
	if err != nil {
		return nil, err
	}
	pl.set("engine.point_ms", pointMS)
	pl.set("gate.busy_ms", gateMS)
	pl.set("iss.busy_ms", issMS)
	pl.set("serve.admission_ms", hists["serve_stage_admission_seconds"].meanMS())
	pl.set("serve.session_ms", hists["serve_stage_session_seconds"].meanMS())
	pl.set("serve.sweep_ms", hists["serve_stage_sweep_seconds"].meanMS())
	pl.set("serve.respond_ms", hists["serve_stage_respond_seconds"].meanMS())
	pl.set("serve.request_ms", hists["serve_request_seconds"].meanMS())
	pl.set("serve.warm_ratio", ratio(d("serve_warm_hits_total"), d("serve_requests_total")))
	pl.set("serve.degraded_frac", float64(degraded)/reqN)
	pl.set("router.hop_ms", svcMeanMS-hists["serve_endpoint_estimate_seconds"].meanMS())
	pl.set("router.retries", d("router_retries_total")/reqN)
	pl.set("router.hedges", d("router_hedges_total")/reqN)
	pl.set("router.failovers", d("router_failovers_total")/reqN)
	pl.set("ecachesync.syncs", d("ecachesync_syncs_total"))
	pl.set("ecachesync.sync_ms", ratio(d("ecachesync_sync_nanos_total")/1e6, d("ecachesync_syncs_total")))
	pl.set("ecachesync.paths_pushed", d("ecachesync_paths_pushed_total"))
	pl.set("ecachesync.paths_pulled", d("ecachesync_paths_pulled_total"))
	sortedLags := sortedCopy(lags)
	pl.set("loadgen.lag_ms_tail", percentile(sortedLags, tailOf(len(sortedLags))))
	pl.set("trace.overhead_pct", (ratio(serviceNS[1], serviceNS[0])-1)*100)
	log := spanLog{max: maxLoggedSpans}
	log.add(col.take())
	if err := rc.writeSpans(&log); err != nil {
		return nil, err
	}
	return res, nil
}
