package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/cluster"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/parallel"
	"dynsample/internal/server"
)

// endpoint is one handler served on a loopback port.
type endpoint struct {
	URL  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// Close stops the listener and waits for its serve loop to return.
func (e *endpoint) Close() {
	if e == nil {
		return
	}
	e.srv.Close()
	<-e.done
}

// shardNode is one in-process cluster shard.
type shardNode struct {
	sys *core.System
	ep  *endpoint
}

// deployment is everything one workload serves: a single node with ingest
// and a sample catalog, and a two-shard cluster over the same base data.
type deployment struct {
	dir  string
	seed int64
	w    workloadDef
	base *engine.Database
	sys  *core.System
	srv  *server.Server
	wal  *ingest.WAL
	ing  *ingest.Coordinator
	cat  *catalog.Catalog
	node *endpoint

	shards  []*shardNode
	coord   *cluster.Coordinator
	cluster *endpoint

	// preprocess is the single node's SmallGroup.Preprocess wall time.
	preprocess time.Duration
}

const numShards = 2

func newStrategy(w workloadDef, seed int64) *core.SmallGroup {
	return core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate: w.BaseRate,
		Seed:     seed,
		Workers:  parallel.DefaultWorkers(),
	})
}

// onlineConfig is the ingest maintenance config, shared by the live
// coordinator and the restart replay so replay is bit-identical.
func onlineConfig(w workloadDef, seed int64) core.OnlineConfig {
	return core.OnlineConfig{Seed: seed, SmallGroupFraction: 0.5 * w.BaseRate}
}

// deploy builds the data, samples, servers and cluster of one workload:
// everything setup_s times. dir must not exist yet.
func deploy(w workloadDef, seed int64, dir string) (d *deployment, err error) {
	d = &deployment{dir: dir, seed: seed, w: w}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return d, err
	}
	if d.base, err = generate(seed, w.FactRows); err != nil {
		return d, fmt.Errorf("generate: %w", err)
	}
	strategy := newStrategy(w, seed)
	start := time.Now()
	p, err := strategy.Preprocess(d.base)
	if err != nil {
		return d, fmt.Errorf("preprocess: %w", err)
	}
	d.preprocess = time.Since(start)
	d.sys = core.NewSystem(d.base)
	d.sys.AddPrepared(server.DefaultStrategy, p)

	if d.cat, err = catalog.Open(filepath.Join(dir, "catalog"), catalog.Options{}); err != nil {
		return d, err
	}
	if d.wal, err = ingest.OpenWAL(filepath.Join(dir, "wal")); err != nil {
		return d, err
	}
	d.ing, err = ingest.New(d.sys, d.wal, ingest.Config{
		Online: onlineConfig(w, seed),
		// Rebuilds are driven by batch count, never by the drift gauge, so
		// the run does the same work every time.
		DriftBound: -1,
	})
	if err != nil {
		return d, err
	}
	d.srv = server.New(d.sys, server.Config{
		Rebuild: server.RebuildConfig{Strategy: strategy, Catalog: d.cat, Workers: parallel.DefaultWorkers()},
		Ingest:  d.ing,
	})
	d.srv.MarkGeneration(0, "preprocess")
	if d.node, err = serve(d.srv.Handler()); err != nil {
		return d, err
	}

	addrs := make([]string, numShards)
	for i := range addrs {
		sdb, err := cluster.Stripe(d.base, i, numShards)
		if err != nil {
			return d, err
		}
		sp, err := newStrategy(w, seed).Preprocess(sdb)
		if err != nil {
			return d, fmt.Errorf("preprocess shard %d: %w", i, err)
		}
		sn := &shardNode{sys: core.NewSystem(sdb)}
		sn.sys.AddPrepared(server.DefaultStrategy, sp)
		d.shards = append(d.shards, sn)
		if sn.ep, err = serve(server.New(sn.sys, server.Config{Shards: numShards, ShardID: i}).Handler()); err != nil {
			return d, err
		}
		addrs[i] = sn.ep.URL
	}
	if d.coord, err = cluster.New(cluster.Config{ShardAddrs: addrs}); err != nil {
		return d, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n := d.coord.Join(ctx); n != numShards {
		return d, fmt.Errorf("only %d of %d shards joined the coordinator", n, numShards)
	}
	if d.cluster, err = serve(d.coord.Handler()); err != nil {
		return d, err
	}
	return d, nil
}

// systems returns the single node's system followed by each shard's.
func (d *deployment) systems() []*core.System {
	out := []*core.System{d.sys}
	for _, sh := range d.shards {
		out = append(out, sh.sys)
	}
	return out
}

// closeCluster stops the coordinator and its shards.
func (d *deployment) closeCluster() {
	d.cluster.Close()
	d.cluster = nil
	if d.coord != nil {
		d.coord.Close()
		d.coord = nil
	}
	for _, sh := range d.shards {
		sh.ep.Close()
	}
	d.shards = nil
}

// closeNode stops the single node, its ingest coordinator and its WAL.
func (d *deployment) closeNode() error {
	d.node.Close()
	d.node = nil
	if d.ing != nil {
		d.ing.Close()
		d.ing = nil
	}
	var err error
	if d.wal != nil {
		err = d.wal.Close()
		d.wal = nil
	}
	return err
}

// Close stops everything and removes the deployment's directory.
func (d *deployment) Close() {
	d.closeCluster()
	d.closeNode()
	os.RemoveAll(d.dir)
}

// restartCount rebuilds the single node the way aqpd starts up — newest
// catalog checkpoint restored onto a regenerated base, then the WAL tail
// replayed — and returns the restored system's exact COUNT(*). The node must
// be closed first so the WAL is not open twice.
func (d *deployment) restartCount() (int64, ingest.ReplayStats, error) {
	var rs ingest.ReplayStats
	base, err := generate(d.seed, d.w.FactRows)
	if err != nil {
		return 0, rs, err
	}
	sys := core.NewSystem(base)
	var snap *ingest.Snapshot
	if _, err := d.cat.LoadLatest(func(r io.Reader) error {
		s, err := ingest.DecodeSnapshot(r)
		snap = s
		return err
	}); err != nil {
		return 0, rs, fmt.Errorf("load checkpoint: %w", err)
	}
	if snap.Checkpoint == nil {
		return 0, rs, errors.New("newest catalog generation carries no checkpoint")
	}
	if err := snap.Restore(sys, server.DefaultStrategy); err != nil {
		return 0, rs, err
	}
	wal, err := ingest.OpenWAL(filepath.Join(d.dir, "wal"))
	if err != nil {
		return 0, rs, err
	}
	defer wal.Close()
	ing, err := ingest.New(sys, wal, ingest.Config{
		Online:     onlineConfig(d.w, d.seed),
		DriftBound: -1,
		BaseRows:   int(snap.Checkpoint.BaseRows),
	})
	if err != nil {
		return 0, rs, err
	}
	defer ing.Close()
	ing.SeedIdempotency(snap.IDs)
	if rs, err = ing.ReplayWAL(); err != nil {
		return 0, rs, fmt.Errorf("replay: %w", err)
	}
	res, _, err := sys.Exact(&engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Count}}})
	if err != nil {
		return 0, rs, err
	}
	return countOf(res), rs, nil
}

// countOf returns the single COUNT(*) of an ungrouped result.
func countOf(res *engine.Result) int64 {
	gs := res.Groups()
	if len(gs) != 1 || len(gs[0].Vals) == 0 {
		return -1
	}
	return int64(gs[0].Vals[0])
}
