package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/httpfront"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
	"scisparql/internal/shard"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
	"scisparql/internal/turtle"
)

// A workload is a dataset, the way it is loaded, and the traffic mix
// its closed-loop clients send. README.md records why each exists.
type workload struct {
	name string
	// setup builds and loads one instance and serves it.
	setup func(in *inputs, dir string, traced bool) (*instance, error)
	// read returns a reader client's read for a deck slot.
	read func(in *inputs, rng *rand.Rand, zipf *rand.Zipf, slot int) *query
	// block is the size of the read deck.
	block int
	// clients is the number of closed-loop clients. A read-only mix has
	// one, so each query runs without another one queued beside it.
	clients int
	// writer makes client 0 the update-mix writer.
	writer bool
	// oracle builds the reference a seeded sample of reads is compared
	// with; nil when the generator's model is the whole oracle.
	oracle func(in *inputs) (*core.SSDM, error)
}

// inputs are the seeded generators' outputs for one run.
type inputs struct {
	seed int64
	bib  *bibModel
	arr  *arrayModel
}

var workloads = []*workload{
	{name: "bib-read", setup: setupBib, read: bibRead, block: bibBlock, clients: 1, oracle: tupleOracle},
	{name: "array-mix", setup: setupArrays, read: arrayRead, block: arrayBlock, clients: 1},
	{name: "update-mix", setup: setupUpdate, read: bibRead, block: bibBlock, clients: 2, writer: true, oracle: tupleOracle},
	{name: "shard-gather", setup: setupShards, read: bibRead, block: bibBlock, clients: 1, oracle: tupleOracle},
}

const (
	bibDocs    = 10000
	shardDocs  = 2000
	nShards    = 4
	walGroup   = 2 * time.Millisecond // ssdm-server's -wal-group-ms default
	serveGrace = 10 * time.Second
)

func makeInputs(w *workload, seed int64) *inputs {
	in := &inputs{seed: seed}
	switch w.name {
	case "array-mix":
		in.arr = newArrayModel(seed)
	case "shard-gather":
		in.bib = newBibModel(shardDocs, seed)
	default:
		in.bib = newBibModel(bibDocs, seed)
	}
	return in
}

func bibRead(in *inputs, rng *rand.Rand, _ *rand.Zipf, slot int) *query {
	return in.bib.readQuery(rng, slot)
}

func arrayRead(in *inputs, rng *rand.Rand, zipf *rand.Zipf, slot int) *query {
	return in.arr.arrayQuery(rng, zipf, slot)
}

// instance is one built dataset behind a serving endpoint.
type instance struct {
	db      *core.SSDM    // the SSDM the endpoint serves
	dbs     []*core.SSDM  // every SSDM that holds data
	backend *timedBackend // traced array-mix only
	legs    *legLog       // traced shard-gather only
	ep      *endpoint

	load   time.Duration // time inside LoadTurtle / AddArrayTriple
	gen    time.Duration // generator time spent inside setup (excluded from setup_s)
	parse  time.Duration // turtle.ParseString of the set-up document (traced runs)
	dir    string
	closer func() error
}

func (in *instance) close() error {
	var errs []error
	if in.ep != nil {
		errs = append(errs, in.ep.close())
	}
	if in.closer != nil {
		errs = append(errs, in.closer())
	}
	errs = append(errs, os.RemoveAll(in.dir))
	return errors.Join(errs...)
}

// timedLoad runs a load call and adds its time to in.load.
func (in *instance) timedLoad(fn func() error) error {
	t0 := time.Now()
	err := fn()
	in.load += time.Since(t0)
	return err
}

// timeTurtleParse parses the set-up document into a throwaway graph.
func (in *instance) timeTurtleParse(doc string) error {
	t0 := time.Now()
	err := turtle.ParseString(doc, rdf.NewGraph())
	in.parse = time.Since(t0)
	return err
}

func setupBib(in *inputs, dir string, traced bool) (*instance, error) {
	t0 := time.Now()
	doc := in.bib.turtle()
	inst := &instance{dir: dir, gen: time.Since(t0)}
	if traced {
		if err := inst.timeTurtleParse(doc); err != nil {
			return inst, err
		}
	}
	db := core.Open()
	inst.db, inst.dbs = db, []*core.SSDM{db}
	if err := inst.timedLoad(func() error { return db.LoadTurtle(doc, "") }); err != nil {
		return inst, err
	}
	return inst, inst.serve(traced)
}

func setupUpdate(in *inputs, dir string, traced bool) (*instance, error) {
	t0 := time.Now()
	doc := in.bib.turtle()
	inst := &instance{dir: dir, gen: time.Since(t0)}
	if traced {
		if err := inst.timeTurtleParse(doc); err != nil {
			return inst, err
		}
	}
	opts := core.DefaultOptions()
	opts.WALDir = filepath.Join(dir, "wal")
	opts.WALSync = "always"
	opts.WALGroupWait = walGroup
	db := core.OpenWith(opts)
	if _, err := db.EnableWAL(); err != nil {
		return inst, err
	}
	inst.db, inst.dbs = db, []*core.SSDM{db}
	inst.closer = db.CloseWAL
	if err := inst.timedLoad(func() error { return db.LoadTurtle(doc, "") }); err != nil {
		return inst, err
	}
	return inst, inst.serve(traced)
}

func setupArrays(in *inputs, dir string, traced bool) (*instance, error) {
	inst := &instance{dir: dir}
	fs, err := filestore.New(filepath.Join(dir, "arrays"))
	if err != nil {
		return inst, err
	}
	inst.closer = fs.Close
	var backend storage.Backend = fs
	if traced {
		inst.backend = &timedBackend{Backend: fs, fs: fs}
		backend = inst.backend
	}
	meta := arrayMetadataTurtle()
	if traced {
		if err := inst.timeTurtleParse(meta); err != nil {
			return inst, err
		}
	}
	db := core.Open()
	db.AttachBackend(backend)
	inst.db, inst.dbs = db, []*core.SSDM{db}
	if err := inst.timedLoad(func() error { return db.LoadTurtle(meta, "") }); err != nil {
		return inst, err
	}
	for k := 0; k < nArrays; k++ {
		t0 := time.Now()
		a, err := array.FromFloats(in.arr.data(k), arrayDim, arrayDim)
		inst.gen += time.Since(t0)
		if err != nil {
			return inst, err
		}
		subj := rdf.IRI(fmt.Sprintf("http://bench/arr%d", k))
		if err := inst.timedLoad(func() error { return db.AddArrayTriple(subj, "http://bench/data", a) }); err != nil {
			return inst, err
		}
	}
	// Every run starts from a cold chunk cache; the warm-up fills it.
	array.SharedChunkCache().Reset()
	return inst, inst.serve(traced)
}

func setupShards(in *inputs, dir string, traced bool) (*instance, error) {
	t0 := time.Now()
	doc := in.bib.turtle()
	inst := &instance{dir: dir, gen: time.Since(t0)}
	if traced {
		if err := inst.timeTurtleParse(doc); err != nil {
			return inst, err
		}
		inst.legs = &legLog{}
	}
	node := core.Open()
	shards := make([]shard.Shard, nShards)
	for i := range shards {
		db := core.Open()
		inst.dbs = append(inst.dbs, db)
		shards[i] = shard.NewLocalShard(fmt.Sprintf("local%d", i), db)
		if traced {
			shards[i] = &timedShard{Shard: shards[i], log: inst.legs}
		}
	}
	coord, err := shard.New(node, shards)
	if err != nil {
		return inst, err
	}
	node.SetDistributor(coord)
	inst.db = node
	inst.closer = coord.Close
	if err := inst.timedLoad(func() error { return coord.LoadTurtle(doc, "") }); err != nil {
		return inst, err
	}
	return inst, inst.serve(traced)
}

// tupleOracle is a single-node instance over the same document running
// the tuple-at-a-time executor (BatchSize -1), the program's own
// reference path.
func tupleOracle(in *inputs) (*core.SSDM, error) {
	opts := core.DefaultOptions()
	opts.BatchSize = -1
	db := core.OpenWith(opts)
	return db, db.LoadTurtle(in.bib.turtle(), "")
}

// endpoint is the front door served on a loopback port.
type endpoint struct {
	url    string
	front  *httpfront.Front
	traced *tracedHandler
	srv    *http.Server
	done   chan struct{}
	client *http.Client
}

// serve puts the instance behind httpfront on a loopback http.Server
// and waits until the endpoint answers.
func (in *instance) serve(traced bool) error {
	front := httpfront.New(httpfront.NewTenants(in.db))
	front.Metrics = metrics.NewRegistry()
	front.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ep := &endpoint{front: front, done: make(chan struct{})}
	var h http.Handler = front
	if traced {
		ep.traced = newTracedHandler(front)
		h = ep.traced
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ep.url = "http://" + ln.Addr().String()
	ep.srv = &http.Server{Handler: h, ReadHeaderTimeout: serveGrace}
	ep.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	go func() {
		defer close(ep.done)
		_ = ep.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	in.ep = ep
	resp, err := ep.client.Get(ep.url + "/sparql?query=ASK%7B%7D")
	if err != nil {
		return fmt.Errorf("endpoint does not answer: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("endpoint answered %d", resp.StatusCode)
	}
	return nil
}

func (ep *endpoint) close() error {
	ep.front.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), serveGrace)
	defer cancel()
	err := ep.srv.Shutdown(ctx)
	<-ep.done
	ep.client.CloseIdleConnections()
	return err
}
