package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/iosim"
	"bdcc/internal/plan"
	"bdcc/internal/serve"
	"bdcc/internal/shard"
	"bdcc/internal/tpch"
)

// serveClients is the number of closed-loop clients (the container's cores).
const serveClients = 2

// daemon is an in-process bdccd: tpch.Service behind serve.Server with 2
// serial pools, over one shared 2-backend simulated set wired the way
// cmd/bdccd wires a shared remote set, and its loopback clients.
type daemon struct {
	set     *shard.Set
	svc     *tpch.Service
	srv     *serve.Server
	served  chan error
	clients []*serve.Client

	mu      sync.Mutex
	handled []handled
}

// handled is one query as the daemon's handler saw it.
type handled struct {
	name string
	wall time.Duration
	io   iosim.Stats
	peak int64
}

func (c *config) startDaemon(b *built) (*daemon, error) {
	d := &daemon{set: shard.NewSet(2, 1, shard.PaperNet())}
	bench := &tpch.Benchmark{SF: c.sf, Schema: b.db.Schema, Data: b.data, DBs: map[plan.Scheme]*plan.DB{b.db.Scheme: b.db}, Compressed: true}
	d.svc = tpch.NewService(bench)
	dev := iosim.PaperSSD()
	newContext := func() *engine.Context {
		ctx := engine.Options{Workers: 1, Shards: 2}.NewContext(dev)
		ctx.SharedBackends = true
		ctx.Backends = d.set.Backends()
		ctx.Route = d.set.Route
		ctx.Net = d.set.Net()
		ctx.Loads = d.set.Loads
		ctx.Health = d.set.Health
		ctx.FallbackUnits = d.set.LocalFallbackUnits
		return ctx
	}
	d.srv = serve.NewServer(serve.Config{
		Pools:      2,
		Workers:    1,
		QueueCap:   8,
		QueueWait:  time.Second,
		NewContext: newContext,
		Handler:    d.handle(c.tr),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(l) }()
	for i := 0; i < serveClients; i++ {
		cl, err := serve.Dial(l.Addr().String(), "")
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// handle wraps Service.Handle to read each query's own meters from its
// context, and to span the call when tracing.
func (d *daemon) handle(tr *tracer) serve.Handler {
	return func(ctx *engine.Context, scheme, query string) (*engine.Result, error) {
		sp := tr.begin("serve.handle", 0, tr.newTrace())
		start := time.Now()
		res, err := d.svc.Handle(ctx, scheme, query)
		wall := time.Since(start)
		tr.end(sp)
		if err == nil {
			d.mu.Lock()
			d.handled = append(d.handled, handled{name: query, wall: wall, io: ctx.Acct.Stats(), peak: ctx.Mem.Peak()})
			d.mu.Unlock()
		}
		return res, err
	}
}

// close stops the clients, the server and the backend set, and waits for
// the server loop to return.
func (d *daemon) close() {
	for _, cl := range d.clients {
		cl.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.served != nil {
		<-d.served
	}
	for _, bk := range d.set.Backends() {
		bk.Close()
	}
}

// crec is one query as a client saw it.
type crec struct {
	name    string
	latency time.Duration
	res     *engine.Result
}

// clientLoop runs whole passes on client i until the deadline and until it
// ran minPasses (one pass when deadline is zero), and returns its records
// and failures.
func (c *config) clientLoop(d *daemon, i int, rng *rand.Rand, deadline time.Time, minPasses int) ([]crec, tally) {
	var recs []crec
	var t tally
	for pass := 1; ; pass++ {
		for _, q := range passOrder(rng) {
			trace := c.tr.newTrace()
			sp := c.tr.begin("query", 0, trace)
			start := time.Now()
			res, err := d.clients[i].Query("BDCC", q.Name)
			lat := time.Since(start)
			c.tr.end(sp)
			switch {
			case errors.Is(err, serve.ErrRejected):
				t.fail("client %d %s rejected: %v", i, q.Name, err)
			case err != nil:
				t.fail("client %d %s: %v", i, q.Name, err)
			default:
				recs = append(recs, crec{name: q.Name, latency: lat, res: res})
			}
		}
		if deadline.IsZero() || (pass >= minPasses && !time.Now().Before(deadline)) {
			return recs, t
		}
	}
}

// runClients runs every client's loop concurrently and waits for all.
func (c *config) runClients(d *daemon, rngs []*rand.Rand, deadline time.Time) ([][]crec, tally) {
	out := make([][]crec, len(d.clients))
	tallies := make([]tally, len(d.clients))
	var wg sync.WaitGroup
	for i := range d.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], tallies[i] = c.clientLoop(d, i, rngs[i], deadline, (c.minPasses+len(d.clients)-1)/len(d.clients))
		}(i)
	}
	wg.Wait()
	var t tally
	for _, x := range tallies {
		t.add(x)
	}
	return out, t
}

// runServe is the serve-sharded workload: 2 closed-loop serve.Clients query
// an in-process bdccd over loopback TCP on the BDCC scheme. Each client
// runs one warm-up pass, which fills the plan cache; timed passes follow,
// so planning is replayed, not redone.
func runServe(c *config) (*report, error) {
	r := newReport()
	var d *daemon
	b, err := c.setup(r, plan.BDCC, "serve.start", func(b *built) error {
		var err error
		d, err = c.startDaemon(b)
		return err
	}, func(*built) { d.close() })
	if err != nil {
		if d != nil {
			d.close()
		}
		return nil, err
	}
	defer d.close()
	storedStats(r, b.db)
	ref, err := reference(plan.NewPlainDB(tpch.Schema(), b.data.Tables, iosim.PaperSSD()))
	if err != nil {
		return nil, err
	}
	seeds := rand.New(rand.NewSource(c.seed))
	rngs := make([]*rand.Rand, serveClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seeds.Int63()))
	}
	warm, t := c.runClients(d, rngs, time.Time{})
	r.add(t)
	checkClients(&r.tally, warm, ref)

	d.mu.Lock()
	d.handled = nil
	d.mu.Unlock()
	st0 := d.srv.Stats()
	hits0, misses0 := d.svc.CacheStats()
	net0 := d.set.Net().Stats()
	loads0 := d.set.Loads()
	start := time.Now()
	timed, t := c.runClients(d, rngs, start.Add(time.Duration(c.seconds*float64(time.Second))))
	wall := time.Since(start)
	r.add(t)
	st1 := d.srv.Stats()
	hits1, misses1 := d.svc.CacheStats()
	net1 := d.set.Net().Stats()
	loads1 := d.set.Loads()

	var lats []lat
	for _, recs := range timed {
		for _, q := range recs {
			lats = append(lats, lat{q.name, float64(q.latency.Nanoseconds()) / 1e6})
		}
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("no query completed")
	}
	d.mu.Lock()
	recs := make([]qrec, len(d.handled))
	for i, h := range d.handled {
		recs[i] = qrec{name: h.name, latency: h.wall, io: h.io, peak: h.peak}
	}
	d.mu.Unlock()
	passes := float64(len(lats)) / float64(len(tpch.Queries))
	latencies(r, lats, wall)
	summarize(r, recs, true, false)

	r.layers["serve.queued"] = float64(st1.QueuedTotal - st0.QueuedTotal)
	r.layers["serve.rejected"] = float64(st1.Rejected - st0.Rejected)
	r.layers["plan.cache_hits"] = float64(hits1 - hits0)
	r.layers["plan.cache_misses"] = float64(misses1 - misses0)
	r.layers["shard.net_msgs"] = float64(net1.Runs-net0.Runs) / passes
	r.layers["shard.net_mb"] = float64(net1.Bytes-net0.Bytes) / mb / passes
	r.layers["shard.net_ms"] = float64((net1.Time - net0.Time).Nanoseconds()) / 1e6 / passes
	var units, bytes, maxBytes float64
	for i := range loads1 {
		u := float64(loads1[i].Units - loads0[i].Units)
		by := float64(loads1[i].Bytes - loads0[i].Bytes)
		units += u
		bytes += by
		maxBytes = max(maxBytes, by)
	}
	r.layers["shard.units"] = units / passes
	r.layers["shard.unit_mb"] = bytes / mb / passes
	if bytes > 0 {
		r.layers["shard.unit_skew"] = maxBytes / (bytes / float64(len(loads1)))
	}
	var retries int64
	for _, h := range d.set.Health() {
		retries += h.Retries
	}
	r.layers["shard.retries"] = float64(retries)
	r.exact["shard.net_msgs"] = r.layers["shard.net_msgs"]
	r.exact["shard.units"] = r.layers["shard.units"]
	// Client latency less handler time is the daemon's overhead: framing,
	// codecs, admission, loopback.
	var clientMS, handleMS float64
	for _, l := range lats {
		clientMS += l.ms
	}
	for _, q := range recs {
		handleMS += float64(q.latency.Nanoseconds()) / 1e6
	}
	r.layers["serve.handle_ms"] = handleMS / passes
	r.layers["serve.overhead_ms"] = (clientMS - handleMS) / passes
	checkClients(&r.tally, timed, ref)
	return r, nil
}

func checkClients(t *tally, recs [][]crec, ref map[string][]string) {
	for i, cr := range recs {
		for _, q := range cr {
			t.check(fmt.Sprintf("client %d %s", i, q.name), q.res, ref[q.name])
		}
	}
}
