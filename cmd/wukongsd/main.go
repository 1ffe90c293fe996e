// Command wukongsd runs a Wukong+S server: a simulated cluster engine
// exposed over TCP with the line protocol documented in internal/server.
//
//	wukongsd -addr :7690 -nodes 8 -workers 4
//	wukongsd -addr :7690 -load data.nt -ft /var/lib/wukongs
//
// With -listen it becomes one daemon of a real multi-process cluster
// (DESIGN.md §12): the first daemon is the seed, later daemons -join it.
// Every daemon keeps a full replica; writes replicate through the seed's op
// log and each daemon answers one-shot queries from its own replica.
//
//	wukongsd -addr :7690 -nodes 3 -listen 127.0.0.1:7800
//	wukongsd -addr :7691 -nodes 3 -listen 127.0.0.1:7801 -join 127.0.0.1:7800
//	wukongsd -addr :7692 -nodes 3 -listen 127.0.0.1:7802 -join 127.0.0.1:7800
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
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7690", "listen address")
		nodes       = flag.Int("nodes", 4, "simulated cluster size")
		workers     = flag.Int("workers", 4, "query workers per node")
		load        = flag.String("load", "", "N-Triples file to preload")
		ftDir       = flag.String("ft", "", "enable fault tolerance in this directory")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics/cluster, /debug/traces, /healthz and /debug/pprof/ on this address (empty = disabled)")
		version     = flag.Bool("version", false, "print build information and exit")

		// Distributed-tracing knobs (DESIGN.md §13).
		traceSample = flag.Int("trace-sample", 128, "head-sample 1 in N requests into the span ring (1 = every request, 0 = disable tracing)")
		traceSlow   = flag.Duration("trace-slow", time.Millisecond, "always keep spans at least this slow, sampled or not (slow-query log; 0 = off)")
		traceCap    = flag.Int("trace-cap", 4096, "bounded span-ring capacity per daemon")

		// Overload-protection knobs (DESIGN.md §10).
		emitRate    = flag.Float64("emit-rate", 0, "rate-limit EMIT to this many tuples/second (0 = unlimited)")
		emitBurst   = flag.Float64("emit-burst", 0, "EMIT token-bucket burst (0 = one second at -emit-rate)")
		emitWait    = flag.Duration("emit-wait", 0, "how long an EMIT may wait for rate tokens before shedding (0 = shed immediately)")
		pollMax     = flag.Int("poll-max", 0, "cap rows returned per POLL; the rest stays buffered (0 = unlimited)")
		maxPending  = flag.Int("max-pending", 0, "per-stream admission buffer bound in tuples (0 = unbounded)")
		shedPolicy  = flag.String("shed", "drop-newest", "admission shed policy: drop-newest|drop-oldest|block")
		planMode    = flag.String("plan-mode", "auto", "execution-strategy selection: auto (cost-based per query), inplace, or forkjoin")
		deltaMode   = flag.String("delta-mode", "auto", "continuous-query delta evaluation: auto (incremental over window deltas) or off (full recompute per firing)")
		queryDL     = flag.Duration("query-deadline", 0, "per-one-shot-query execution deadline (0 = none)")
		cqDL        = flag.Duration("cq-deadline", 0, "per-continuous-query-firing execution deadline (0 = none)")
		sendRetries = flag.Int("send-retries", 0, "retry budget for transient fabric sends (0 = default 3, negative = none)")

		// Membership / failure-detector knobs (DESIGN.md §11).
		hbEvery      = flag.Duration("heartbeat-interval", 0, "enable node failure detection and live failover with this probe-round period (0 = disabled)")
		suspectAfter = flag.Int("suspect-after", 0, "consecutive missed probe rounds before a node is marked suspect (0 = default 2)")
		deadAfter    = flag.Int("dead-after", 0, "consecutive missed probe rounds before a node is declared dead and the repair pipeline runs (0 = default 5)")

		// Real-cluster knobs (DESIGN.md §12).
		listen    = flag.String("listen", "", "cluster wire listen address (host:port); enables multi-process cluster mode — this daemon is the seed unless -join is set")
		joinAddr  = flag.String("join", "", "seed daemon's -listen address to join (requires -listen)")
		advertise = flag.String("advertise", "", "dialable address peers use to reach this daemon's -listen socket (default: the -listen address)")
		clusterHB = flag.Duration("cluster-heartbeat", 0, "cluster peer-liveness probe period (0 = default 100ms)")
		flowSeed  = flag.Int64("flow-seed", 0, "seed for retry-jitter RNGs (engine sends and cluster replication); 0 = nondeterministic")

		// Durability / failover knobs (DESIGN.md §15; cluster mode only).
		dataDir   = flag.String("data-dir", "", "durable oplog + snapshot directory for this daemon; enables crash restart via Resume (cluster mode only)")
		snapEvery = flag.Int("snapshot-every", 0, "ops between durable engine snapshots (0 = default 4096; needs -data-dir)")
		noSync    = flag.Bool("no-sync", false, "skip fsync on durable oplog appends (faster, loses the tail on power loss)")
	)
	flag.Parse()

	if *version {
		fmt.Printf("wukongsd %s\n", obs.ReadBuild())
		return
	}

	if *joinAddr != "" && *listen == "" {
		log.Fatal("-join requires -listen")
	}
	if *listen != "" && *ftDir != "" {
		log.Fatal("-ft cannot be combined with cluster mode (replication is the durability story there)")
	}
	if *listen != "" && *hbEvery > 0 {
		log.Fatal("-heartbeat-interval is the single-process simulated detector; cluster mode has its own (-cluster-heartbeat)")
	}
	if *dataDir != "" && *listen == "" {
		log.Fatal("-data-dir is the cluster-mode durability story; it requires -listen (use -ft for single-process durability)")
	}
	if *snapEvery != 0 && *dataDir == "" {
		log.Fatal("-snapshot-every requires -data-dir")
	}

	shed, err := flow.ParsePolicy(*shedPolicy)
	if err != nil {
		log.Fatalf("-shed: %v", err)
	}
	cfg := core.Config{
		Nodes:          *nodes,
		WorkersPerNode: *workers,
		PlanMode:       *planMode,
		DeltaMode:      *deltaMode,
		Flow: core.FlowConfig{
			MaxPending:    *maxPending,
			Shed:          shed,
			QueryDeadline: *queryDL,
			CQDeadline:    *cqDL,
			SendRetries:   *sendRetries,
			Seed:          *flowSeed,
		},
		Membership: core.MembershipConfig{
			Enable:              *hbEvery > 0,
			HeartbeatIntervalMS: hbEvery.Milliseconds(),
			SuspectAfter:        *suspectAfter,
			DeadAfter:           *deadAfter,
		},
	}
	ftCfg := core.FTConfig{Dir: *ftDir, CheckpointEveryBatches: 100}
	var srvp atomic.Pointer[server.Server]
	var eng *core.Engine
	if *ftDir != "" {
		// A directory with prior state means this is a restart: recover the
		// replayed store, streams, and logged queries instead of starting
		// empty. Recovered queries route their firings into the server's
		// POLL buffers once it is up (earlier re-fires predate any client).
		eng, err = core.Recover(cfg, ftCfg, nil,
			func(name string) func(*core.Result, core.FireInfo) {
				return func(res *core.Result, f core.FireInfo) {
					if s := srvp.Load(); s != nil {
						s.BufferResult(name, res, f)
					}
				}
			})
		if err == nil {
			fmt.Printf("recovered engine state from %s\n", *ftDir)
		}
	}
	if eng == nil {
		eng, err = core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *ftDir != "" {
			if err := eng.EnableFT(ftCfg); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("fault tolerance enabled in %s\n", *ftDir)
		}
	}
	defer eng.Close()

	if *load != "" && *listen != "" {
		// A -load preload would live only in this daemon's replica: it never
		// enters the seed's op log, so peers would silently diverge. Load
		// through a client instead (LOAD replicates).
		log.Fatal("-load cannot be combined with cluster mode; LOAD via a client so the data replicates")
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		n, err := eng.LoadReader(f)
		f.Close()
		if err != nil {
			log.Fatalf("loading %s: %v", *load, err)
		}
		fmt.Printf("loaded %d triples from %s\n", n, *load)
	}
	build := obs.RegisterBuildInfo(eng.Metrics())
	fmt.Printf("wukongsd %s\n", build)

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
			Capacity:      *traceCap,
		})
	}

	srv := server.New(eng)
	srv.EmitRate = *emitRate
	srv.EmitBurst = *emitBurst
	srv.EmitWait = *emitWait
	srv.MaxPollRows = *pollMax
	srv.Tracer = tracer
	srvp.Store(srv)

	var nodep atomic.Pointer[cluster.Node]
	if *listen != "" {
		adv := *advertise
		if adv == "" {
			adv = *listen
		}
		ccfg := cluster.Config{
			Engine:            eng,
			SelfAddr:          adv,
			OnFire:            srv.BufferResult,
			HeartbeatInterval: *clusterHB,
			FlowSeed:          *flowSeed,
			DataDir:           *dataDir,
			SnapshotEvery:     *snapEvery,
			NoSync:            *noSync,
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
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("cluster -listen %s: %v", *listen, err)
		}
		rank := cluster.SeedRank
		resuming := *dataDir != "" && cluster.HasDurableState(*dataDir)
		if resuming {
			// The durable record knows who we are: re-identify from disk so
			// the wire transport speaks for the right rank even when no peer
			// is alive to ask. Fall back to seed discovery if the record
			// predates our own MEMBER op.
			if r, ok := cluster.RecoverRank(*dataDir, adv); ok {
				rank = r
			} else if *joinAddr != "" {
				r, n, err := cluster.Discover(*joinAddr, adv, 10*time.Second)
				if err != nil {
					log.Fatalf("cluster discover via %s: %v", *joinAddr, err)
				}
				if n != *nodes {
					log.Fatalf("cluster size mismatch: seed runs %d nodes, this daemon was started with -nodes %d", n, *nodes)
				}
				rank = fabric.NodeID(r)
			}
			ccfg.Self = rank
			ccfg.SeedAddr = *joinAddr
		} else if *joinAddr != "" {
			// Joiner: ask the seed for a rank before the wire transport comes
			// up (the transport needs to know which rank it speaks for).
			r, n, err := cluster.Discover(*joinAddr, adv, 10*time.Second)
			if err != nil {
				log.Fatalf("cluster discover via %s: %v", *joinAddr, err)
			}
			if n != *nodes {
				log.Fatalf("cluster size mismatch: seed runs %d nodes, this daemon was started with -nodes %d", n, *nodes)
			}
			rank = fabric.NodeID(r)
			ccfg.Self = rank
			ccfg.SeedAddr = *joinAddr
		}
		// Stamp this daemon's rank onto every span it records from here on.
		tracer.SetNode(int(rank))
		tr, err := wire.NewTCP(ln, wire.TCPConfig{Self: rank, Nodes: *nodes}, eng.Metrics())
		if err != nil {
			log.Fatalf("cluster transport: %v", err)
		}
		defer tr.Close()
		ccfg.Transport = tr
		var node *cluster.Node
		switch {
		case resuming:
			node, err = cluster.Resume(ccfg)
		case *joinAddr == "":
			node, err = cluster.NewSeed(ccfg)
		default:
			node, err = cluster.Join(ccfg)
		}
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		defer node.Close()
		nodep.Store(node)
		srv.SetCluster(node)
		switch {
		case resuming:
			fmt.Printf("wukongsd: resumed rank %d of %d from %s (epoch %d, applied %d), wire on %s\n",
				int(node.Self()), *nodes, *dataDir, node.Epoch(), node.Applied(), adv)
		case *joinAddr == "":
			fmt.Printf("wukongsd: cluster seed, rank 0 of %d, wire on %s\n", *nodes, adv)
		default:
			fmt.Printf("wukongsd: joined cluster as rank %d of %d via %s, wire on %s\n", int(rank), *nodes, *joinAddr, adv)
		}
	}

	if *metricsAddr != "" {
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
			fmt.Printf("wukongsd: metrics on http://%s/metrics (traces on /debug/traces, pprof on /debug/pprof/)\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	fmt.Printf("wukongsd: %d-node engine listening on %s\n", *nodes, *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
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
