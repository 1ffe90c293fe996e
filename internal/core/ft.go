package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/oplog"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// Fault tolerance (§5): the engine logs stream registrations, continuous
// queries, loads and injected batches, and recovery replays the log: it
// reloads the initial RDF data, re-registers the logged streams and queries,
// re-applies the logged loads and re-emits the logged batches in order.
// Continuous queries get at-least-once semantics: a window may execute twice
// across a failure, which clients deduplicate by the window's time
// information.
//
// The paper's upstream backup — sources buffer what they sent and replay it
// on request — is the client's buffer: nothing in this process keeps a copy
// of a sealed batch, and nothing here asks a source to replay one. What
// survives a crash is what the log holds. A checkpoint is one fsync of it;
// a torn tail loses its records.
//
// All of it lives in one oplog.Log, one record per event in the order the
// engine saw them:
//
//	S <ftStreamMeta JSON>          a stream registration
//	Q <query text>                 a continuous-query registration
//	L <N-Triples>                  a load, one "<triple> ." line per triple
//	B <stream> <batch>\n<tuples>   an injected batch, one "<triple> . @ts" line per tuple

// FTConfig configures fault tolerance.
type FTConfig struct {
	// Dir is the persistence directory.
	Dir string
	// CheckpointEveryBatches triggers an automatic checkpoint after this
	// many logged batches (0 = checkpoint only on explicit Checkpoint call).
	CheckpointEveryBatches int
}

// FTStats reports fault-tolerance overhead counters (§6.8).
type FTStats struct {
	LoggedBatches int64
	LoggedTuples  int64
	Checkpoints   int64
	LogTime       time.Duration // cumulative logging delay
}

type ftState struct {
	cfg FTConfig
	log *oplog.Log

	mu sync.Mutex
	// err is the first failed append or sync. It sticks: nothing is appended
	// after it (the log would have a hole), and Checkpoint reports it.
	err     error
	sinceCk int
	stats   FTStats
}

// ftQuarantineCounter counts durable records Recover found damaged (see
// oplog.Log.Damaged) — bit rot or a torn write.
const ftQuarantineCounter = "ft_quarantined_records_total"

// appendLocked logs rec as the next record; a registration or load is synced
// before it returns, a batch waits for the next checkpoint. Caller holds
// st.mu.
func (st *ftState) appendLocked(rec []byte, sync bool) error {
	if st.err == nil {
		st.err = st.log.Append(st.log.Last()+1, rec)
	}
	if st.err == nil && sync {
		st.err = st.log.Sync()
	}
	return st.err
}

// close releases the log. With flush, appended records are synced first
// (graceful shutdown); without, they stay wherever the OS has them
// (simulated crash).
func (st *ftState) close(flush bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if flush && st.err == nil {
		st.err = st.log.Sync()
	}
	st.log.Close()
}

// EnableFT turns on fault tolerance: registered streams and queries are
// logged immediately; every injected batch is logged from now on. A
// directory that already holds a log belongs to an earlier life: Recover
// from it instead.
func (e *Engine) EnableFT(cfg FTConfig) error {
	if cfg.Dir == "" {
		return fmt.Errorf("core: FT requires a directory")
	}
	if oplog.Exists(cfg.Dir) {
		return fmt.Errorf("core: %s already holds a fault-tolerance log; Recover from it", cfg.Dir)
	}
	l, err := oplog.Open(cfg.Dir, oplog.Options{NoSync: true})
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ft != nil {
		l.Close()
		return fmt.Errorf("core: FT already enabled")
	}
	e.ft = &ftState{cfg: cfg, log: l}
	for _, st := range e.streamByID {
		if err := e.ftLogStream(st); err != nil {
			return err
		}
	}
	for _, name := range e.cqOrder {
		e.ftLogQuery(e.continuous[name].Text)
	}
	return nil
}

// ftStreamMeta is the persisted form of a stream registration. Logs written
// before the engine dropped its upstream-backup buffer also carry
// "backup_batches", and those written before the adaptor dropped its
// predicate filter and reorder buffer may carry "keep_preds" and
// "max_delay_ms"; decoding skips all three.
type ftStreamMeta struct {
	Name        string   `json:"name"`
	BatchMS     int64    `json:"batch_ms"`
	TimingPreds []string `json:"timing_preds,omitempty"`
}

// ftLogStream logs one stream registration. Caller holds e.mu.
func (e *Engine) ftLogStream(st *streamState) error {
	meta, err := json.Marshal(ftStreamMeta{
		Name:        st.cfg.Name,
		BatchMS:     st.src.Interval().Milliseconds(),
		TimingPreds: st.cfg.TimingPredicates,
	})
	if err != nil {
		return err
	}
	e.ft.mu.Lock()
	defer e.ft.mu.Unlock()
	return e.ft.appendLocked(append([]byte("S "), meta...), true)
}

// ftLogQuery logs a continuous query's text ("Wukong+S only needs to log all
// continuous queries to the persistent storage and simply re-register them
// after recovery"). Caller holds e.mu.
func (e *Engine) ftLogQuery(text string) {
	e.ft.mu.Lock()
	defer e.ft.mu.Unlock()
	_ = e.ft.appendLocked([]byte("Q "+text), true) // sticks in ft.err; Checkpoint reports it
}

// ftLogLoad logs a load before it is applied, synced like a registration:
// an acked LOAD survives a crash. The caller holds e.sealMu, so the record
// lands after every batch sealed before the load and before any sealed after
// it, and replay gives the load the same snapshot number.
func (e *Engine) ftLogLoad(triples []rdf.Triple) error {
	e.mu.Lock()
	st := e.ft
	e.mu.Unlock()
	if st == nil || len(triples) == 0 {
		return nil
	}
	rec := []byte("L ")
	for _, t := range triples {
		rec = append(rdf.AppendTriple(rec, t), " .\n"...)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.appendLocked(rec, true)
}

// ftLogBatch logs one batch before it is injected, so every batch a stable
// VTS covers is in the log when the next Checkpoint syncs it. Runs on the
// injection path, so its cost is the paper's "logging delay for
// each batch".
func (e *Engine) ftLogBatch(sst *streamState, b stream.Batch) {
	st := e.ft
	start := time.Now()
	var rec bytes.Buffer
	fmt.Fprintf(&rec, "B %s %d\n", sst.src.Name(), b.ID)
	for _, t := range b.Tuples {
		tr, err := e.ss.DecodeTriple(t.EncodedTriple)
		if err != nil {
			continue // undecodable tuples cannot occur for tuples we encoded
		}
		fmt.Fprintf(&rec, "%s . @%d\n", tr, int64(t.TS))
	}
	st.mu.Lock()
	if st.appendLocked(rec.Bytes(), false) == nil {
		st.stats.LoggedBatches++
		st.stats.LoggedTuples += int64(len(b.Tuples))
	}
	st.sinceCk++
	due := st.cfg.CheckpointEveryBatches > 0 && st.sinceCk >= st.cfg.CheckpointEveryBatches
	st.stats.LogTime += time.Since(start)
	st.mu.Unlock()
	if due {
		_ = e.Checkpoint() // a failure sticks in st.err; the next Checkpoint reports it
	}
}

// Checkpoint makes every logged record durable: one fsync of the log. If any
// append or sync has failed, it returns that error.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	st := e.ft
	e.mu.Unlock()
	if st == nil {
		return fmt.Errorf("core: FT not enabled")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err == nil {
		st.err = st.log.Sync()
	}
	st.sinceCk = 0
	if st.err != nil {
		return fmt.Errorf("core: checkpoint: %w", st.err)
	}
	st.stats.Checkpoints++
	return nil
}

// FTStats returns fault-tolerance overhead counters.
func (e *Engine) FTStats() (FTStats, error) {
	e.mu.Lock()
	st := e.ft
	e.mu.Unlock()
	if st == nil {
		return FTStats{}, fmt.Errorf("core: FT not enabled")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats, nil
}

// Recover rebuilds an engine from a fault-tolerance directory: it reloads
// the initial RDF data, replays the log — re-registering streams and
// continuous queries (callbacks come from the factory, since functions
// cannot be persisted), re-applying loads and re-emitting batches — and
// advances past the last replayed batch, which re-fires the recovered
// windows. A load replays at the clock the batches before it reached, as in
// the first life, so it takes the same snapshot number. The log stays open
// as the recovered engine's log.
//
// A torn or corrupt tail is counted in ft_quarantined_records_total and
// replay stops before it: its records are lost, and nothing in this process
// re-emits them. A log whose first record is damaged recovers nothing, so
// Recover fails without touching the directory.
func Recover(cfg Config, ftCfg FTConfig, initial []rdf.Triple, callbacks func(name string) func(*Result, FireInfo)) (*Engine, error) {
	if !oplog.Exists(ftCfg.Dir) {
		return nil, fmt.Errorf("core: recover: %s holds no fault-tolerance log", ftCfg.Dir)
	}
	l, err := oplog.Open(ftCfg.Dir, oplog.Options{NoSync: true})
	if err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	e, err := New(cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	fail := func(err error) (*Engine, error) {
		l.Close()
		e.Close()
		return nil, fmt.Errorf("core: recover %s: %w", ftCfg.Dir, err)
	}
	e.obs.Counter(ftQuarantineCounter).Add(int64(l.Damaged()))
	if l.Last() == 0 {
		return fail(fmt.Errorf("the log's first record is damaged"))
	}
	if err := e.LoadTriples(initial); err != nil {
		return fail(err)
	}
	var maxTS rdf.Timestamp
	err = l.Range(0, 0, func(seq uint64, rec []byte) error {
		if maxTS > 0 && bytes.HasPrefix(rec, []byte("L ")) {
			e.AdvanceTo(maxTS) // a no-op once the clock is there
		}
		end, err := e.replayRecord(string(rec), callbacks)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		maxTS = max(maxTS, end)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	// Advance past every replayed batch so the recovered store is stable —
	// this also fires the re-registered queries' recovered windows. Only
	// then does the log take new records: the replayed ones are in it.
	e.AdvanceTo(maxTS)
	e.mu.Lock()
	e.ft = &ftState{cfg: ftCfg, log: l}
	e.mu.Unlock()
	return e, nil
}

// replayRecord applies one logged record to a recovering engine and returns
// the end of the batch it re-emitted (0 for any other record). Every query is
// registered before the final AdvanceTo injects anything, so windows that
// fired before the crash fire again over the replayed data — the paper's
// at-least-once contract (§5).
func (e *Engine) replayRecord(rec string, callbacks func(name string) func(*Result, FireInfo)) (rdf.Timestamp, error) {
	kind, body, _ := strings.Cut(rec, " ")
	switch kind {
	case "S":
		var m ftStreamMeta
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			return 0, err
		}
		_, err := e.RegisterStream(stream.Config{
			Name:             m.Name,
			BatchInterval:    time.Duration(m.BatchMS) * time.Millisecond,
			TimingPredicates: m.TimingPreds,
		})
		return 0, err
	case "Q":
		q, err := sparql.Parse(body)
		if err != nil {
			return 0, err
		}
		var cb func(*Result, FireInfo)
		if callbacks != nil {
			cb = callbacks(q.Name)
		}
		_, err = e.RegisterContinuous(body, cb)
		return 0, err
	case "L":
		triples, err := rdf.ParseTriples(body)
		if err != nil {
			return 0, err
		}
		return 0, e.LoadTriples(triples)
	case "B":
		head, lines, _ := strings.Cut(body, "\n")
		var name string
		var batch int64
		if _, err := fmt.Sscanf(head, "%s %d", &name, &batch); err != nil {
			return 0, fmt.Errorf("batch header %q: %w", head, err)
		}
		src, ok := e.SourceOf(name)
		if !ok {
			return 0, fmt.Errorf("batch for unknown stream %q", name)
		}
		tuples, err := rdf.ParseTuples(lines)
		if err != nil {
			return 0, err
		}
		for _, tu := range tuples {
			// Replay bypasses admission control: every logged tuple was
			// admitted before the crash, and shedding it here would lose
			// durable data.
			if err := src.EmitReplayed(tu); err != nil {
				return 0, err
			}
		}
		return src.BatchEnd(tstore.BatchID(batch)), nil
	}
	return 0, fmt.Errorf("unknown record kind %q", kind)
}
