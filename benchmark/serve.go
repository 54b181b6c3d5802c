package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specchar"
	"specchar/internal/client"
	"specchar/internal/dataset"
	"specchar/internal/mtree"
	"specchar/internal/obs"
	"specchar/internal/registry"
	"specchar/internal/serve"
	"specchar/internal/suites"
)

const (
	modelName = "cpu2006"
	// loadClients is the number of client goroutines, each with its own
	// connection: the CPU count of the machine the workloads were sized on.
	loadClients = 2
	// smallRate is serve-small's open-loop rate in requests per second,
	// well under capacity: on 2 vCPUs a probe at 600/s built a backlog.
	smallRate = 250
	// smallRequests and bulkRequests are the distinct pre-encoded bodies
	// each workload cycles through.
	smallRequests = 1024
	bulkRequests  = 16
	// bulkRows is the samples per serve-bulk request: above the batcher's
	// default ColumnarMin, so every flush takes the fused-columnar route.
	bulkRows = 512
	// putEvery is serve-bulk's hot-swap period.
	putEvery = time.Second
)

// daemon is the scoring daemon as specchard runs it — an in-memory
// registry behind serve.New with default settings and an obs recorder —
// on a loopback listener, plus the client the load goes through.
type daemon struct {
	reg      *registry.Registry
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	tr       *http.Transport
	hc       *http.Client
	cl       *client.Client
	base     string
	tree     *mtree.CompiledTree
	rows     [][]float64 // the generated samples requests are drawn from
	artifact []byte      // the model as PUT /v1/models takes it
	gen      time.Duration
}

// startDaemon is the serving workloads' set-up: generate CPU2006 at
// QuickConfig scale, train and compile its tree (as specchard -selfbench
// does), load it into the registry and start serving.
func startDaemon(ctx context.Context, seed uint64, rec *obs.Recorder, led *ledger) (*daemon, error) {
	cfg := specchar.QuickConfig()
	cfg.Gen.Seed = seed
	d := &daemon{}
	var ds *dataset.Dataset
	t := time.Now()
	if err := led.span("suites.generate", func() (err error) {
		ds, err = suites.GenerateContext(ctx, suites.CPU2006(), cfg.Gen)
		return err
	}); err != nil {
		return nil, err
	}
	d.gen = time.Since(t)
	var tree *mtree.Tree
	if err := led.span("mtree.build", func() (err error) {
		tree, err = mtree.BuildContext(ctx, ds, cfg.Tree)
		return err
	}); err != nil {
		return nil, err
	}
	if err := led.span("mtree.compile", func() (err error) {
		d.tree, err = tree.CompileContext(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := d.tree.WriteTo(&buf); err != nil {
		return nil, err
	}
	d.artifact = buf.Bytes()
	d.rows = ds.Xs()

	d.reg = registry.New()
	if _, err := d.reg.Load(modelName, d.tree, "benchmark"); err != nil {
		return nil, err
	}
	if rec == nil {
		rec = obs.New()
	}
	var err error
	if d.srv, err = serve.New(serve.Config{Registry: d.reg, Recorder: rec}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.tr = &http.Transport{MaxConnsPerHost: loadClients, MaxIdleConnsPerHost: loadClients}
	d.hc = &http.Client{Transport: d.tr}
	// No retries and no breaker: every failed request shows as failed.
	d.cl, err = client.New(client.Config{
		BaseURL: d.base, HTTPClient: d.hc, MaxRetries: -1, RetryBudget: -1, BreakerWindow: -1,
	})
	if err == nil {
		err = d.cl.WaitHealthy(ctx, 10*time.Second)
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop shuts the listener down, drains the batchers and waits for the
// serving goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Close()
	d.reg.Close()
	d.tr.CloseIdleConnections()
	return err
}

// request is one pre-encoded score request and the predictions
// CompiledTree.PredictDataset gives for its rows.
type request struct {
	body []byte
	rows [][]float64
	want []float64
}

// buildRequests draws n requests of width consecutive samples each, at
// seeded offsets into the daemon's sample pool.
func (d *daemon) buildRequests(seed uint64, n, width int) ([]request, error) {
	rng := dataset.NewRNG(seed)
	reqs := make([]request, n)
	for i := range reqs {
		off := rng.Intn(len(d.rows))
		rows := make([][]float64, width)
		for j := range rows {
			rows[j] = d.rows[(off+j)%len(d.rows)]
		}
		body, err := encodeScore(rows)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, rows: rows, want: d.tree.PredictDataset(rowsDataset(d.tree, rows))}
	}
	return reqs, nil
}

// encodeScore builds the body client.Client.Score would send.
func encodeScore(rows [][]float64) ([]byte, error) {
	return json.Marshal(map[string]any{"model": modelName, "samples": rows})
}

func rowsDataset(t *mtree.CompiledTree, rows [][]float64) *dataset.Dataset {
	ds := &dataset.Dataset{Schema: t.Schema(), Samples: make([]dataset.Sample, len(rows))}
	for i, r := range rows {
		ds.Samples[i].X = r
	}
	return ds
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// failedLatency stands for the latency of a failed request: it misses
// any limit.
const failedLatency = time.Duration(math.MaxInt64)

// loadStats is what one load phase observed.
type loadStats struct {
	mu      sync.Mutex
	lat     []time.Duration // per score request; open loop: from its due time
	late    []time.Duration // open loop: how late each request was sent
	puts    []time.Duration
	busy    time.Duration // summed time score requests were in flight
	samples int           // samples in replies that passed the check
	start   time.Time
	perSec  []int   // samples in checked replies by second of the phase
	rate    float64 // samples_per_s, as the loop defines it
}

// windowRate is the median of the checked samples completed in each of
// the phase's first n whole seconds: the phase's throughput, unmoved by
// a stretch of seconds in which the hypervisor takes the CPU away.
func (st *loadStats) windowRate(n int) float64 {
	ws := make([]float64, n)
	for i := range ws {
		if i < len(st.perSec) {
			ws[i] = float64(st.perSec[i])
		}
	}
	slices.Sort(ws)
	return ws[(n-1)/2]
}

// score sends one request, checks its reply and records its latency
// from due.
func (d *daemon) score(ctx context.Context, r *request, st *loadStats, out *outcome, due time.Time) {
	sent := time.Now()
	res, err := d.cl.ScoreBytes(ctx, r.body)
	done := time.Now()
	ok := err == nil && res.Model == modelName && sameBits(res.Predictions, r.want)
	out.check(ok, "score reply differs from CompiledTree.PredictDataset (err %v)", err)
	lat := done.Sub(due)
	if !ok {
		lat = failedLatency
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lat = append(st.lat, lat)
	st.busy += done.Sub(sent)
	if ok {
		st.samples += len(r.rows)
		sec := int(done.Sub(st.start) / time.Second)
		for len(st.perSec) <= sec {
			st.perSec = append(st.perSec, 0)
		}
		st.perSec[sec] += len(r.rows)
	}
}

// openLoop sends n requests on a fixed schedule at rate per second from
// loadClients goroutines, times each from when it was due, stops at the
// end of the schedule and waits for the replies in flight.
func (d *daemon) openLoop(ctx context.Context, reqs []request, rate float64, n int, out *outcome) *loadStats {
	start := time.Now()
	st := &loadStats{start: start}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				late := time.Since(due)
				st.mu.Lock()
				st.late = append(st.late, late)
				st.mu.Unlock()
				d.score(ctx, &reqs[i%len(reqs)], st, out, due)
			}
		}()
	}
	wg.Wait()
	// The schedule fixes the rate; what the phase shows is whether every
	// reply arrived and passed by its end.
	st.rate = float64(st.samples) / time.Since(start).Seconds()
	return st
}

// closedLoop runs loadClients goroutines that each send their next
// request when the previous reply arrives, for dur; the first also
// hot-swaps the model with a PUT of the same artifact every putEvery.
func (d *daemon) closedLoop(ctx context.Context, reqs []request, dur time.Duration, out *outcome) *loadStats {
	start := time.Now()
	st := &loadStats{start: start}
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < loadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nextPut := start.Add(putEvery)
			for k := w; time.Now().Before(end); k += loadClients {
				if w == 0 && !time.Now().Before(nextPut) {
					d.put(ctx, st, out)
					nextPut = nextPut.Add(putEvery)
				}
				d.score(ctx, &reqs[k%len(reqs)], st, out, time.Now())
			}
		}()
	}
	wg.Wait()
	st.rate = st.windowRate(int(dur / time.Second))
	return st
}

// put hot-swaps the model with its own artifact; the reply must name a
// newer version.
func (d *daemon) put(ctx context.Context, st *loadStats, out *outcome) {
	before, loaded := d.reg.Get(modelName)
	t := time.Now()
	info, err := d.cl.PutModel(ctx, modelName, d.artifact)
	took := time.Since(t)
	out.check(loaded && err == nil && info.Version > before.Version, "hot-swap PUT: loaded before %v: %v", loaded, err)
	st.mu.Lock()
	st.puts = append(st.puts, took)
	st.mu.Unlock()
}

// serveLoad runs one workload's load phase.
type serveLoad func(ctx context.Context, d *daemon, reqs []request, o options, out *outcome) *loadStats

// runServeSmall: single-sample requests in an open loop at smallRate.
func runServeSmall(ctx context.Context, o options, out *outcome) error {
	return runServe(ctx, o, out, 1, smallRequests, func(ctx context.Context, d *daemon, reqs []request, o options, out *outcome) *loadStats {
		return d.openLoop(ctx, reqs, smallRate, smallRate*o.seconds, out)
	})
}

// runServeBulk: bulkRows-sample requests in a closed loop, with hot-swaps.
func runServeBulk(ctx context.Context, o options, out *outcome) error {
	return runServe(ctx, o, out, bulkRows, bulkRequests, func(ctx context.Context, d *daemon, reqs []request, o options, out *outcome) *loadStats {
		return d.closedLoop(ctx, reqs, time.Duration(o.seconds)*time.Second, out)
	})
}

// runServe sets the daemon up setupRepeats times (keeping the last),
// pre-encodes the requests, and times the load phase.
func runServe(ctx context.Context, o options, out *outcome, width, nreq int, load serveLoad) error {
	sctx, rec, led := ctx, (*obs.Recorder)(nil), (*ledger)(nil)
	if o.traced {
		sctx, rec, led = startTracing(ctx)
	}
	var d *daemon
	var gens []time.Duration
	setup, err := timeSetup(setupRepeats, func(last bool) error {
		if !last {
			dd, err := startDaemon(ctx, o.seed, nil, nil)
			if err != nil {
				return err
			}
			gens = append(gens, dd.gen)
			return dd.stop()
		}
		var err error
		d, err = startDaemon(sctx, o.seed, rec, led)
		if err == nil {
			gens = append(gens, d.gen)
		}
		return err
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	reqs, err := d.buildRequests(o.seed, nreq, width)
	if err != nil {
		return err
	}
	cpuSuite := suites.CPU2006()
	ops := simOps(cpuSuite, specchar.QuickConfig().Gen)

	var st *loadStats
	ph, err := measure(func() error {
		st = load(ctx, d, reqs, o, out)
		return nil
	})
	if err != nil {
		return err
	}
	if !o.traced {
		stopped = true
		if err := d.stop(); err != nil {
			return err
		}
		out.set("setup_s", setup.Seconds())
		setPhase(out, ph)
		out.set("sim_mops_per_s", float64(ops)/median(gens).Seconds()/1e6)
		out.set("score_p50_ms", ms(quantile(st.lat, 0.5)))
		out.set("samples_per_s", st.rate)
		return nil
	}

	before, err := d.counters(ctx)
	if err != nil {
		return err
	}
	var tst *loadStats
	tph, err := measure(func() error {
		tst = load(sctx, d, reqs, o, out)
		return nil
	})
	if err != nil {
		return err
	}
	after, err := d.counters(ctx)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	handler, predict, encode, err := d.probes(sctx, reqs, out)
	if err != nil {
		return err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	setTracedLayers(out, ph, tph, rec, led)
	if err := setSimLayers(out, o.seed, led.total("suites.generate"), ops, cpuSuite); err != nil {
		return err
	}
	scoreP50 := quantile(tst.lat, 0.5)
	out.set("bench.span_share", tst.busy.Seconds()/(loadClients*tph.wall.Seconds()))
	out.set("mtree.compile_ms", ms(led.total("mtree.compile")))
	out.set("serve.handler_ms", ms(handler))
	out.set("net.loopback_ms", ms(scoreP50-handler))
	out.set("mtree.predict_us", predict.Seconds()*1e6)
	out.set("client.encode_ms", ms(encode))
	batches := delta("specchard_batches_total")
	out.set("serve.batches", batches)
	out.set("serve.columnar_batches", delta("specchard_columnar_batches_total"))
	if batches > 0 {
		out.set("serve.samples_per_batch", delta("specchard_samples_scored_total")/batches)
	}
	out.set("serve.rejected", delta("specchard_rejected_total")+delta("specchard_deadline_rejected_total"))
	out.set("registry.put_ms", ms(quantile(tst.puts, 0.5)))
	out.set("loadgen.late_p99_ms", ms(quantile(tst.late, 0.99)))
	out.set("score_p99_ms", ms(quantile(tst.lat, 0.99)))
	return nil
}

// probeRequests is how many requests each layer probe replays.
const probeRequests = 64

// probes time single layers on the workload's own requests, one at a
// time: the handler with no TCP (Handler().ServeHTTP), the request's
// rows through PredictDatasetCheckedContext, and encoding the body as
// client.Score does. Each returns its median.
func (d *daemon) probes(ctx context.Context, reqs []request, out *outcome) (handler, predict, encode time.Duration, err error) {
	h := d.srv.Handler()
	var hs, ps, es []time.Duration
	for i := 0; i < probeRequests; i++ {
		r := &reqs[i%len(reqs)]
		hreq := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(r.body))
		rr := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rr, hreq)
		hs = append(hs, time.Since(t))
		var res client.ScoreResult
		err := json.Unmarshal(rr.Body.Bytes(), &res)
		out.check(rr.Code == http.StatusOK && err == nil && sameBits(res.Predictions, r.want),
			"handler reply %d differs from CompiledTree.PredictDataset (err %v)", rr.Code, err)

		ds := rowsDataset(d.tree, r.rows)
		t = time.Now()
		preds, err := d.tree.PredictDatasetCheckedContext(ctx, ds)
		ps = append(ps, time.Since(t))
		if err != nil {
			return 0, 0, 0, err
		}
		out.check(sameBits(preds, r.want), "PredictDatasetCheckedContext differs from PredictDataset")

		t = time.Now()
		if _, err := encodeScore(r.rows); err != nil {
			return 0, 0, 0, err
		}
		es = append(es, time.Since(t))
	}
	return median(hs), median(ps), median(es), nil
}

// counters reads the daemon's /metrics counters.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, sc.Err()
}
