// Command wukongsd runs a Wukong+S server: an engine simulating -nodes
// in-process partitions, exposed over TCP with the line protocol documented
// in internal/server.
//
//	wukongsd -addr :7690 -nodes 8 -workers 4
//	wukongsd -addr :7690 -load data.nt -data-dir /var/lib/wukongs
//
// -data-dir is the one durability flag, and there is one durability stack:
// the cluster's op log (DESIGN.md §8, §15). Standalone, the daemon is a
// one-member cluster with no peers whose log a restart replays (or refuses
// to start over); with -listen, the log is also what peers catch up from,
// compacted by snapshots.
//
// With -listen it becomes one daemon of a real multi-process cluster
// (DESIGN.md §12): the first daemon is the seed, later daemons -join it.
// Every daemon keeps a full replica; writes replicate through the seed's op
// log and each daemon answers one-shot queries from its own replica. A
// daemon's rank comes from the order it joined, not from -nodes, so any
// number of daemons can join.
//
//	wukongsd -addr :7690 -listen 127.0.0.1:7800
//	wukongsd -addr :7691 -listen 127.0.0.1:7801 -join 127.0.0.1:7800
//	wukongsd -addr :7692 -listen 127.0.0.1:7802 -join 127.0.0.1:7800
//
// Try it with netcat:
//
//	$ nc localhost 7690
//	LOAD
//	<Logan> <po> <T-13> .
//	.
//	QUERY
//	SELECT ?X WHERE { Logan po ?X }
//	.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// options holds every command-line flag's value, in defineFlags order.
type options struct {
	addr           string
	nodes, workers int
	load           string
	metricsAddr    string
	version        bool

	traceSample int
	traceSlow   time.Duration
	traceCap    int

	emitRate, emitBurst float64
	pollMax, maxPending int
	planMode, deltaMode string
	queryDL, cqDL       time.Duration

	listen, join, advertise string
	clusterHB               time.Duration

	dataDir   string
	snapEvery int
	noSync    bool
}

// defineFlags declares wukongsd's flags on fs and returns where their values
// land once fs is parsed.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7690", "listen address")
	fs.IntVar(&o.nodes, "nodes", 2, "engine partitions (simulated nodes inside this daemon's engine)")
	fs.IntVar(&o.workers, "workers", 4, "query workers per engine partition")
	fs.StringVar(&o.load, "load", "", "N-Triples file to preload")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics/cluster, /debug/traces, /healthz and /debug/pprof/ on this address (empty = disabled)")
	fs.BoolVar(&o.version, "version", false, "print build information and exit")

	// Distributed-tracing knobs (DESIGN.md §13).
	fs.IntVar(&o.traceSample, "trace-sample", 128, "head-sample 1 in N requests into the span ring (1 = every request, 0 = disable tracing)")
	fs.DurationVar(&o.traceSlow, "trace-slow", time.Millisecond, "always keep spans at least this slow, sampled or not (slow-query log; 0 = off)")
	fs.IntVar(&o.traceCap, "trace-cap", 4096, "bounded span-ring capacity per daemon")

	// Overload-protection knobs (DESIGN.md §10).
	fs.Float64Var(&o.emitRate, "emit-rate", 0, "rate-limit EMIT to this many tuples/second (0 = unlimited)")
	fs.Float64Var(&o.emitBurst, "emit-burst", 0, "EMIT token-bucket burst (0 = one second at -emit-rate)")
	fs.IntVar(&o.pollMax, "poll-max", 0, "cap rows returned per POLL; the rest stays buffered (0 = unlimited)")
	fs.IntVar(&o.maxPending, "max-pending", 0, "per-stream admission buffer bound in tuples (0 = unbounded)")
	fs.StringVar(&o.planMode, "plan-mode", "auto", "execution-strategy selection: auto (cost-based per query), inplace, or forkjoin")
	fs.StringVar(&o.deltaMode, "delta-mode", "auto", "continuous-query delta evaluation: auto (incremental over window deltas) or off (full recompute per firing)")
	fs.DurationVar(&o.queryDL, "query-deadline", 0, "per-one-shot-query execution deadline (0 = none)")
	fs.DurationVar(&o.cqDL, "cq-deadline", 0, "per-continuous-query-firing execution deadline (0 = none)")

	// Real-cluster knobs (DESIGN.md §12).
	fs.StringVar(&o.listen, "listen", "", "cluster wire listen address (host:port); enables multi-process cluster mode — this daemon is the seed unless -join is set")
	fs.StringVar(&o.join, "join", "", "seed daemon's -listen address to join (requires -listen)")
	fs.StringVar(&o.advertise, "advertise", "", "dialable address peers use to reach this daemon's -listen socket (default: the -listen address)")
	fs.DurationVar(&o.clusterHB, "cluster-heartbeat", 0, "cluster peer-liveness probe period (0 = default 100ms)")

	// Durability knobs (DESIGN.md §8 standalone, §15 with -listen).
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory: the durable op log a restart replays (standalone: a one-member cluster; with -listen, also snapshots)")
	fs.IntVar(&o.snapEvery, "snapshot-every", 0, "ops between durable engine snapshots (0 = default 4096; needs -listen and -data-dir)")
	fs.BoolVar(&o.noSync, "no-sync", false, "skip the per-append data flush (fdatasync) of the durable oplog (faster, loses the tail on power loss)")
	return o
}

// checkFlags refuses flag combinations that do not compose: a flag that would
// be silently ignored, or one whose effect another flag's mode contradicts.
func checkFlags(o *options) error {
	cluster := o.listen != ""
	switch {
	case o.join != "" && !cluster:
		return errors.New("-join requires -listen")
	case o.advertise != "" && !cluster:
		return errors.New("-advertise requires -listen")
	case o.clusterHB != 0 && !cluster:
		return errors.New("-cluster-heartbeat requires -listen")
	case o.emitBurst != 0 && o.emitRate <= 0:
		return errors.New("-emit-burst requires -emit-rate")
	case cluster && o.load != "":
		// A -load preload would live only in this daemon's replica: it never
		// enters the seed's op log, so peers would silently diverge.
		return errors.New("-load cannot be combined with cluster mode; LOAD via a client so the data replicates")
	case o.snapEvery != 0 && o.dataDir == "":
		return errors.New("-snapshot-every requires -data-dir")
	case o.noSync && o.dataDir == "":
		return errors.New("-no-sync requires -data-dir")
	case o.snapEvery != 0 && !cluster:
		return errors.New("-snapshot-every requires -listen (a standalone daemon takes no snapshots)")
	}
	return nil
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.version {
		fmt.Printf("wukongsd %s\n", obs.ReadBuild())
		return
	}
	if err := checkFlags(o); err != nil {
		log.Fatal(err)
	}

	cfg := core.Config{
		Nodes:          o.nodes,
		WorkersPerNode: o.workers,
		PlanMode:       o.planMode,
		DeltaMode:      o.deltaMode,
		Flow: core.FlowConfig{
			MaxPending:    o.maxPending,
			QueryDeadline: o.queryDL,
			CQDeadline:    o.cqDL,
		},
	}
	var initial []rdf.Triple
	if o.load != "" {
		f, err := os.Open(o.load)
		if err != nil {
			log.Fatal(err)
		}
		initial, err = rdf.ReadAllTriples(f)
		f.Close()
		if err != nil {
			log.Fatalf("loading %s: %v", o.load, err)
		}
	}
	eng, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	// The preload is loaded on every start, before any log replays, and is
	// never logged.
	if err := eng.LoadTriples(initial); err != nil {
		log.Fatal(err)
	}
	if o.load != "" {
		fmt.Printf("loaded %d triples from %s\n", len(initial), o.load)
	}
	build := obs.RegisterBuildInfo(eng.Metrics())
	fmt.Printf("wukongsd %s\n", build)

	var tracer *trace.Tracer
	if o.traceSample > 0 {
		tracer = trace.New(trace.Config{
			SampleEvery:   o.traceSample,
			SlowThreshold: o.traceSlow,
			Capacity:      o.traceCap,
		})
	}

	srv := server.New(eng)
	srv.EmitRate = o.emitRate
	srv.EmitBurst = o.emitBurst
	srv.MaxPollRows = o.pollMax
	srv.Tracer = tracer

	var nodep atomic.Pointer[cluster.Node]
	ccfg := cluster.Config{
		Engine:            eng,
		SelfAddr:          o.addr,
		OnFire:            srv.BufferResult,
		HeartbeatInterval: o.clusterHB,
		DataDir:           o.dataDir,
		SnapshotEvery:     o.snapEvery,
		NoSync:            o.noSync,
		Metrics:           eng.Metrics(),
		Tracer:            tracer,
		LocalStats: func() string {
			line := srv.StatsLine()
			if n := nodep.Load(); n != nil {
				line = fmt.Sprintf("rank=%d applied=%d %s", int(n.Self()), n.Applied(), line)
			}
			return line
		},
		Logf: log.Printf,
	}
	switch {
	case o.listen == "" && o.dataDir != "":
		node, resumed, err := openSolo(ccfg)
		if err != nil {
			log.Fatalf("data dir %s: %v", o.dataDir, err)
		}
		defer node.Close()
		nodep.Store(node)
		srv.SetCluster(node)
		if resumed {
			fmt.Printf("wukongsd: replayed %s (applied %d)\n", o.dataDir, node.Applied())
		} else {
			fmt.Printf("wukongsd: op log in %s\n", o.dataDir)
		}
	case o.listen != "":
		adv := o.advertise
		if adv == "" {
			adv = o.listen
		}
		ccfg.SelfAddr = adv
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			log.Fatalf("cluster -listen %s: %v", o.listen, err)
		}
		rank := cluster.SeedRank
		resuming := o.dataDir != "" && cluster.HasDurableState(o.dataDir)
		if resuming {
			// The durable record knows who we are: re-identify from disk so
			// the wire transport speaks for the right rank even when no peer
			// is alive to ask. Fall back to seed discovery if the record
			// predates our own MEMBER op.
			if r, ok := cluster.RecoverRank(o.dataDir, adv); ok {
				rank = r
			} else if o.join != "" {
				rank = discover(o.join, adv)
			}
			ccfg.Self = rank
			ccfg.SeedAddr = o.join
		} else if o.join != "" {
			// Joiner: ask the seed for a rank before the wire transport comes
			// up (the transport needs to know which rank it speaks for).
			rank = discover(o.join, adv)
			ccfg.Self = rank
			ccfg.SeedAddr = o.join
		}
		// Stamp this daemon's rank onto every span it records from here on.
		tracer.SetNode(int(rank))
		tr, err := wire.NewTCP(ln, wire.TCPConfig{Self: rank}, eng.Metrics())
		if err != nil {
			log.Fatalf("cluster transport: %v", err)
		}
		defer tr.Close()
		ccfg.Transport = tr
		var node *cluster.Node
		switch {
		case resuming:
			node, err = cluster.Resume(ccfg)
		case o.join == "":
			node, err = cluster.NewSeed(ccfg)
		default:
			node, err = cluster.Join(ccfg)
		}
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		defer node.Close()
		if o.dataDir == "" {
			// Without -data-dir the op log lives in a private temporary
			// directory that Close removes; a signal skips deferred calls.
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			go func() {
				<-sig
				node.Close()
				os.Exit(1)
			}()
		}
		nodep.Store(node)
		srv.SetCluster(node)
		switch {
		case resuming:
			fmt.Printf("wukongsd: resumed rank %d from %s (epoch %d, applied %d), wire on %s\n",
				int(node.Self()), o.dataDir, node.Epoch(), node.Applied(), adv)
		case o.join == "":
			fmt.Printf("wukongsd: cluster seed, rank 0, wire on %s\n", adv)
		default:
			fmt.Printf("wukongsd: joined cluster as rank %d via %s, wire on %s\n", int(rank), o.join, adv)
		}
	}

	if o.metricsAddr != "" {
		mux := obs.NewHTTPMux(eng.Metrics())
		mux.Handle("/healthz", healthzHandler(&nodep))
		mux.Handle("/metrics/cluster", clusterMetricsHandler(eng.Metrics(), &nodep))
		mux.Handle("/debug/traces", trace.Handler(func() ([]trace.Span, map[string]string) {
			if n := nodep.Load(); n != nil {
				spans, reports := n.ClusterTraces()
				errs := map[string]string{}
				for _, r := range reports {
					if r.Err != "" {
						errs[fmt.Sprintf("rank %d", r.Rank)] = r.Err
					}
				}
				if len(errs) == 0 {
					errs = nil
				}
				return spans, errs
			}
			return tracer.Spans(), nil
		}))
		go func() {
			fmt.Printf("wukongsd: metrics on http://%s/metrics (traces on /debug/traces, pprof on /debug/pprof/)\n", o.metricsAddr)
			if err := http.ListenAndServe(o.metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	fmt.Printf("wukongsd: %d-partition engine listening on %s\n", o.nodes, o.addr)
	if err := srv.ListenAndServe(o.addr); err != nil {
		log.Fatal(err)
	}
}

// discover asks the seed at join for this daemon's rank, exiting on failure.
func discover(join, advertise string) fabric.NodeID {
	r, _, err := cluster.Discover(join, advertise, 10*time.Second)
	if err != nil {
		log.Fatalf("cluster discover via %s: %v", join, err)
	}
	return fabric.NodeID(r)
}

// openSolo starts a standalone daemon's durability: a one-member cluster
// (no transport) logging into cfg.DataDir. A directory that holds state is a
// restart, replayed by Resume, and one that does not replay is an error —
// never a reason to start empty over it.
func openSolo(cfg cluster.Config) (node *cluster.Node, resumed bool, err error) {
	if cluster.HasDurableState(cfg.DataDir) {
		node, err = cluster.Resume(cfg)
		return node, true, err
	}
	node, err = cluster.NewSeed(cfg)
	return node, false, err
}

// healthzHandler serves readiness: a single-process daemon is ready once
// serving; a cluster daemon renders Node.Status() so probes can tell
// "ready" (200) apart from "catching-up" (mid snapshot transfer — queries
// would see a partial replica) and "no-authority" (the sequencer is dead
// and no successor has fenced in yet — writes will stall), both 503.
func healthzHandler(nodep *atomic.Pointer[cluster.Node]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		type health struct {
			Status    string `json:"status"`
			Rank      int    `json:"rank,omitempty"`
			Applied   uint64 `json:"applied,omitempty"`
			Epoch     uint64 `json:"epoch,omitempty"`
			Authority int    `json:"authority,omitempty"`
			Reason    string `json:"reason,omitempty"`
		}
		n := nodep.Load()
		if n == nil {
			json.NewEncoder(w).Encode(health{Status: "ready"})
			return
		}
		h := health{
			Status:    n.Status(),
			Rank:      int(n.Self()),
			Applied:   n.Applied(),
			Epoch:     n.Epoch(),
			Authority: int(n.Authority()),
		}
		switch h.Status {
		case "catching-up":
			h.Reason = "snapshot transfer / bulk sync in progress; replica is partial"
			w.WriteHeader(http.StatusServiceUnavailable)
		case "no-authority":
			h.Reason = "write authority is dead and no successor has fenced in"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
}

// clusterMetricsHandler serves the federated registry merge. Without a
// cluster it degrades to the local snapshot so the endpoint shape is stable.
func clusterMetricsHandler(local *obs.Registry, nodep *atomic.Pointer[cluster.Node]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc := struct {
			Metrics map[string]obs.JSONMetric `json:"metrics"`
			Members []cluster.MemberReport    `json:"members,omitempty"`
		}{}
		if n := nodep.Load(); n != nil {
			doc.Metrics, doc.Members = n.ClusterMetrics()
		} else {
			doc.Metrics = local.SnapshotJSON()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}
