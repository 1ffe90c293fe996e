// Faulttolerance: crash and recover a Wukong+S instance (§5).
//
// A standalone daemon's durability is a one-member cluster: every write —
// stream and query registrations, loads, EMITs, ADVANCEs — is appended to
// an op log (and flushed) before it is applied and acked. The example
// streams data through a registered continuous query, crashes the node with
// the last EMITs acked but not yet sealed into a batch, and resumes a new
// instance from the op log — showing that the store's absorbed data, the
// stream, the continuous query and every acked EMIT survive, with
// at-least-once execution semantics (replayed windows fire again).
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rdf"
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

// start opens one life of the node on dir: a new op log, or, with resume, a
// replay of the one an earlier life left. The initial graph is loaded first
// on every start, as wukongsd's -load is, and never logged.
func start(dir string, life int, resume bool) (*core.Engine, *cluster.Node) {
	eng, err := core.New(core.Config{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadTriples(initial()); err != nil {
		log.Fatal(err)
	}
	cfg := cluster.Config{
		Engine:   eng,
		SelfAddr: "example",
		DataDir:  dir,
		OnFire: func(name string, r *core.Result, f core.FireInfo) {
			for _, row := range r.Strings() {
				fmt.Printf("[life %d] %s @%dms: %s\n", life, name, f.At, row)
			}
		},
	}
	open := cluster.NewSeed
	if resume {
		open = cluster.Resume
	}
	node, err := open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return eng, node
}

// must runs one write through the node's op log.
func must(node *cluster.Node, kind string, args []string, body string) {
	if _, err := node.Forward(kind, args, body); err != nil {
		log.Fatalf("%s: %v", kind, err)
	}
}

func post(i int) string {
	return rdf.Tuple{Triple: rdf.T("Erik", "po", fmt.Sprintf("T-%d", 100+i)), TS: rdf.Timestamp(i*100 + 10)}.String()
}

func main() {
	dir, err := os.MkdirTemp("", "wukongs-ft-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- First life -----------------------------------------------------
	eng, node := start(dir, 1, false)
	must(node, "STREAM", []string{"Posts", "100"}, "")
	must(node, "REGISTER", nil, cq)
	for i := 0; i < 10; i++ {
		must(node, "EMIT", []string{"Posts"}, post(i))
	}
	must(node, "ADVANCE", []string{"1000"}, "")
	// Two more posts are acked; no ADVANCE seals them before the crash.
	for i := 10; i < 12; i++ {
		must(node, "EMIT", []string{"Posts"}, post(i))
	}
	fmt.Printf("[life 1] %d ops logged; crashing now\n", node.Applied())
	node.Close() // a crash: nothing is flushed that an ack had not flushed already
	eng.Close()

	// ---- Second life ----------------------------------------------------
	eng, node = start(dir, 2, true)
	defer eng.Close()
	defer node.Close()
	fmt.Printf("[life 2] replayed the op log; %d ops applied with the restart's epoch fence\n", node.Applied())

	// The absorbed stream data survived the crash.
	res, err := eng.Query(`SELECT ?P WHERE { Erik po ?P }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[life 2] recovered store has %d of Erik's posts\n", res.Len())

	// The acked but unsealed posts survived too: the next ADVANCE seals
	// them, and the recovered continuous query fires over them.
	must(node, "ADVANCE", []string{"2000"}, "")
	res, err = eng.Query(`SELECT ?P WHERE { Erik po ?P }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[life 2] after the next ADVANCE: %d of Erik's posts\n", res.Len())
	fmt.Println("[life 2] done — at-least-once semantics: replayed windows fire twice")
}
