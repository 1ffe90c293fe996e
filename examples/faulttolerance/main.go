// Faulttolerance: checkpoint, crash, and recover a Wukong+S instance (§5).
//
// The example enables fault tolerance (one durable log of stream and query
// registrations and injected batches, synced at each checkpoint), streams data with a registered continuous query, crashes
// the engine, and recovers a new instance from the durable state — showing
// that the store's absorbed data, the stream registrations, and the
// continuous query all survive, with at-least-once execution semantics.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/stream"
)

func initial() []rdf.Triple {
	return []rdf.Triple{
		rdf.T("Logan", "fo", "Erik"),
		rdf.T("Erik", "fo", "Logan"),
	}
}

const cq = `
REGISTER QUERY follows_posts AS
SELECT ?F ?P
FROM Posts [RANGE 1s STEP 1s]
WHERE { Logan fo ?F . GRAPH Posts { ?F po ?P } }`

func main() {
	dir, err := os.MkdirTemp("", "wukongs-ft-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- First life -----------------------------------------------------
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	eng.LoadTriples(initial())
	if err := eng.EnableFT(core.FTConfig{Dir: dir, CheckpointEveryBatches: 10}); err != nil {
		log.Fatal(err)
	}
	posts, err := eng.RegisterStream(stream.Config{Name: "Posts", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterContinuous(cq, func(r *core.Result, f core.FireInfo) {
		for _, row := range r.Strings() {
			fmt.Printf("[life 1] follows_posts @%dms: %s\n", f.At, row)
		}
	}); err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		tu := rdf.Tuple{Triple: rdf.T("Erik", "po", fmt.Sprintf("T-%d", 100+i)), TS: rdf.Timestamp(i*100 + 10)}
		if err := posts.Emit(tu); err != nil {
			log.Fatal(err)
		}
	}
	eng.AdvanceTo(1000)
	stats, _ := eng.FTStats()
	fmt.Printf("[life 1] logged %d batches (%d tuples), %d checkpoints; crashing now\n",
		stats.LoggedBatches, stats.LoggedTuples, stats.Checkpoints)
	eng.Close() // simulated crash: no clean shutdown protocol needed

	// ---- Second life ----------------------------------------------------
	recovered, err := core.Recover(core.Config{Nodes: 2}, core.FTConfig{Dir: dir, CheckpointEveryBatches: 10},
		initial(), func(name string) func(*core.Result, core.FireInfo) {
			return func(r *core.Result, f core.FireInfo) {
				for _, row := range r.Strings() {
					fmt.Printf("[life 2] %s @%dms: %s\n", name, f.At, row)
				}
			}
		})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()

	// The absorbed stream data survived the crash.
	res, err := recovered.Query(`SELECT ?P WHERE { Erik po ?P }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[life 2] recovered store has %d of Erik's posts\n", res.Len())

	// The recovered continuous query keeps firing on fresh data.
	src2, ok := recovered.SourceOf("Posts")
	if !ok {
		log.Fatal("stream not recovered")
	}
	next := recovered.Now() + 50
	if err := src2.Emit(rdf.Tuple{Triple: rdf.T("Erik", "po", "T-999"), TS: next}); err != nil {
		log.Fatal(err)
	}
	recovered.AdvanceTo(next + 1000)
	fmt.Println("[life 2] done — at-least-once semantics: replayed windows may fire twice")
}
