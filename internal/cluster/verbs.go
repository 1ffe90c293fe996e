// The data verbs. STREAM, LOAD, EMIT, ADVANCE and REGISTER — the paper's §3
// client/proxy operations — are interpreted here and nowhere else: a
// standalone server calls ApplyVerb directly, and Node.applyOp calls it for
// every op that is not cluster bookkeeping, so the sequencer, a replica
// applying a broadcast, SYNC catch-up, oplog replay and snapshot restore all
// execute the same lines.
//
// The contract that makes replication sound (DESIGN.md §12): a verb either
// applies completely and returns its reply, or returns an error having
// changed nothing — not the store, not a stream buffer, not the clock, not
// the string server's ID assignment. Everything is parsed and checked before
// the first mutation. The authority broadcasts an op before it applies it, so
// a refused op is sequenced like any other and every replica refuses it the
// same way; this contract is what makes that refusal a no-op everywhere.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/stream"
)

// ApplyVerb executes one data verb against eng and returns the reply text
// that follows "+OK " on the line protocol ("stream S", "loaded 12",
// "emitted 7", "now 400", "registered Q1"). args must not carry the id=
// token. onFire receives the firings of a query REGISTER creates; it may be
// nil.
func ApplyVerb(eng *core.Engine, onFire func(name string, res *core.Result, fi core.FireInfo), kind string, args []string, body string) (string, error) {
	switch kind {
	case "STREAM":
		if len(args) < 2 {
			return "", errors.New("usage: STREAM <name> <interval_ms> [timingPred ...]")
		}
		ms, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			return "", fmt.Errorf("bad interval %q", args[1])
		}
		_, err = eng.RegisterStream(stream.Config{
			Name:             args[0],
			BatchInterval:    time.Duration(ms) * time.Millisecond,
			TimingPredicates: args[2:],
		})
		if err != nil {
			// Idempotent re-registration: the stream already exists (a
			// reconnecting client replaying its session, a stream recovered
			// from the op log, a snapshot restored under the op). Adopt it.
			if _, ok := eng.SourceOf(args[0]); !ok {
				return "", err
			}
		}
		return "stream " + args[0], nil

	case "LOAD":
		if len(args) != 0 {
			return "", errors.New("usage: LOAD")
		}
		triples, err := rdf.ParseTriples(body)
		if err != nil {
			return "", err
		}
		if err := eng.LoadTriples(triples); err != nil {
			return "", err
		}
		return fmt.Sprintf("loaded %d", len(triples)), nil

	case "EMIT":
		if len(args) != 1 {
			return "", errors.New("usage: EMIT <stream>")
		}
		src, ok := eng.SourceOf(args[0])
		if !ok {
			return "", fmt.Errorf("unknown stream %q", args[0])
		}
		// One admission decision for the whole body: it depends only on the
		// stream's state in op order, so every replica decides alike.
		n, err := src.EmitBody(body)
		if err != nil {
			return "", err
		}
		return "emitted " + strconv.Itoa(n), nil

	case "ADVANCE":
		if len(args) != 1 {
			return "", errors.New("usage: ADVANCE <ts_ms>")
		}
		ts, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return "", fmt.Errorf("bad timestamp %q", args[0])
		}
		eng.AdvanceTo(rdf.Timestamp(ts))
		return fmt.Sprintf("now %d", int64(eng.Now())), nil

	case "REGISTER":
		if len(args) != 0 {
			return "", errors.New("usage: REGISTER")
		}
		// The engine assigns the query name and the sink needs it, so the
		// callback waits on ready until registration has returned (a query
		// cannot fire before the next ADVANCE anyway).
		name, ready := "", make(chan struct{})
		defer close(ready)
		cq, err := eng.RegisterContinuous(body, func(res *core.Result, fi core.FireInfo) {
			<-ready
			if onFire != nil {
				onFire(name, res, fi)
			}
		})
		if err != nil {
			return "", err
		}
		name = cq.Name
		return "registered " + name, nil

	default:
		return "", fmt.Errorf("unknown op kind %q", kind)
	}
}
