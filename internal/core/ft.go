package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// Fault tolerance (§5): Wukong+S assumes upstream backup (sources buffer and
// replay recent batches), logs registered continuous queries, and performs
// incremental checkpointing of streaming data. Recovery reloads the initial
// RDF data, replays the durable checkpoints in order, re-registers the
// logged queries, and asks sources to replay anything after the last
// checkpoint. Continuous queries get at-least-once semantics: a window may
// execute twice across a failure, which clients deduplicate by the window's
// time information.

// FTConfig configures fault tolerance.
type FTConfig struct {
	// Dir is the persistence directory.
	Dir string
	// MirrorDir, when set, duplicates every durable write to a second
	// directory — the paper's note that availability "can be implemented by
	// replicating initial data and log checkpoints on remote nodes" (§5);
	// point it at remote-mounted storage and Recover from it after losing
	// Dir.
	MirrorDir string
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
	mu  sync.Mutex
	cfg FTConfig

	queryLog *os.File
	batchF   *os.File
	batchW   *bufio.Writer

	// Mirror replicas of the durable files (nil without MirrorDir).
	queryLogM *os.File
	batchFM   *os.File
	batchWM   *bufio.Writer

	ckptSeq int
	sinceCk int

	stats FTStats
}

// close releases the durable files. With flush, buffered batch records are
// written out first (graceful shutdown); without, they die with the process
// (simulated crash).
func (st *ftState) close(flush bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if flush {
		if st.batchW != nil {
			st.batchW.Flush()
			st.batchF.Sync()
		}
		if st.batchWM != nil {
			st.batchWM.Flush()
			st.batchFM.Sync()
		}
	}
	for _, f := range []*os.File{st.batchF, st.batchFM, st.queryLog, st.queryLogM} {
		if f != nil {
			f.Close()
		}
	}
}

// sinks returns the active batch-log writers (primary + mirror).
func (st *ftState) sinks() []*bufio.Writer {
	if st.batchWM != nil {
		return []*bufio.Writer{st.batchW, st.batchWM}
	}
	return []*bufio.Writer{st.batchW}
}

const (
	ftQueriesFile = "queries.log"
	ftStreamsFile = "streams.json"
	ftVTSFile     = "vts.json"
	ftQuerySep    = "\x1e" // record separator between query texts

	// ftQuarantineCounter counts durable records dropped because their CRC32C
	// frame did not match — bit rot or a torn write that still parsed.
	ftQuarantineCounter = "ft_quarantined_records_total"
)

// Durable records are CRC32C-framed (Castagnoli, the polynomial storage
// systems use for exactly this): every batch-log record and checkpoint
// metadata file ends with a trailer line "C <8 hex digits>" whose checksum
// covers all preceding record bytes. Replay verifies the frame before
// emitting anything from a record; a mismatch quarantines the record — it is
// dropped and counted, and replay stops there, since later records may depend
// on the lost tuples — instead of silently absorbing corrupted data.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports a durable record whose CRC32C frame does not match
// its contents.
var ErrCorruptRecord = errors.New("core: corrupt durable record (CRC32C mismatch)")

// withCRCTrailer frames data with its checksum trailer.
func withCRCTrailer(data []byte) []byte {
	return append(data, fmt.Sprintf("\nC %08x\n", crc32.Checksum(data, crcTable))...)
}

// readCheckedFile reads a CRC-framed metadata file, verifies the frame, and
// returns the payload with the trailer stripped.
func readCheckedFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndex(raw, []byte("\nC "))
	if i < 0 {
		return nil, fmt.Errorf("%w: %s has no checksum trailer", ErrCorruptRecord, filepath.Base(path))
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(raw[i+1:]), "C %x", &sum); err != nil {
		return nil, fmt.Errorf("%w: %s trailer unreadable", ErrCorruptRecord, filepath.Base(path))
	}
	if payload := raw[:i]; crc32.Checksum(payload, crcTable) == sum {
		return payload, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrCorruptRecord, filepath.Base(path))
}

// writeFileAtomic durably replaces path: the data is written to a temporary
// file in the same directory, fsynced, and renamed over the target, so a
// crash mid-write never leaves a torn metadata file. The directory is synced
// after the rename so the new name itself survives the crash.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// EnableFT turns on fault tolerance: registered streams and queries are
// logged immediately; every injected batch is logged from now on.
func (e *Engine) EnableFT(cfg FTConfig) error {
	if cfg.Dir == "" {
		return fmt.Errorf("core: FT requires a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	// The query log is rewritten from the engine's current state: after a
	// recovery the recovered queries are re-logged below, so appending to the
	// old log would accumulate duplicates across kill/recover cycles.
	qf, err := os.OpenFile(filepath.Join(cfg.Dir, ftQueriesFile), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	st := &ftState{cfg: cfg, queryLog: qf}
	if cfg.MirrorDir != "" {
		if err := os.MkdirAll(cfg.MirrorDir, 0o755); err != nil {
			qf.Close()
			return err
		}
		st.queryLogM, err = os.OpenFile(filepath.Join(cfg.MirrorDir, ftQueriesFile), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			qf.Close()
			return err
		}
	}
	// Resume at the highest existing batch-log sequence: replay sorts logs by
	// name, so a recovered engine must append to the newest log, not restart
	// at 000000 (which would put post-recovery batches before checkpointed
	// ones in replay order).
	if logs, _ := filepath.Glob(filepath.Join(cfg.Dir, "batches.*.log")); len(logs) > 0 {
		for _, path := range logs {
			var seq int
			if _, err := fmt.Sscanf(filepath.Base(path), "batches.%d.log", &seq); err == nil && seq > st.ckptSeq {
				st.ckptSeq = seq
			}
		}
	}
	if err := st.openBatchLog(); err != nil {
		qf.Close()
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ft != nil {
		qf.Close()
		return fmt.Errorf("core: FT already enabled")
	}
	e.ft = st
	// Log already-registered state.
	if err := e.ftWriteStreamConfigs(); err != nil {
		return err
	}
	for _, cq := range e.continuous {
		e.ftLogQuery(cq.Text)
	}
	return nil
}

func (st *ftState) openBatchLog() error {
	name := fmt.Sprintf("batches.%06d.log", st.ckptSeq)
	f, err := os.OpenFile(filepath.Join(st.cfg.Dir, name),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.batchF = f
	st.batchW = bufio.NewWriterSize(f, 1<<16)
	if st.cfg.MirrorDir != "" {
		m, err := os.OpenFile(filepath.Join(st.cfg.MirrorDir, name),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		st.batchFM = m
		st.batchWM = bufio.NewWriterSize(m, 1<<16)
	}
	return nil
}

// ftStreamMeta is the persisted form of a stream registration.
type ftStreamMeta struct {
	Name          string   `json:"name"`
	BatchMS       int64    `json:"batch_ms"`
	TimingPreds   []string `json:"timing_preds,omitempty"`
	KeepPreds     []string `json:"keep_preds,omitempty"`
	BackupBatches int      `json:"backup_batches,omitempty"`
	MaxDelayMS    int64    `json:"max_delay_ms,omitempty"`
}

func (e *Engine) ftWriteStreamConfigs() error {
	// Caller holds e.mu.
	metas := make([]ftStreamMeta, 0, len(e.streams))
	for name, st := range e.streams {
		metas = append(metas, ftStreamMeta{
			Name:          name,
			BatchMS:       st.src.Interval().Milliseconds(),
			TimingPreds:   st.cfg.TimingPredicates,
			KeepPreds:     st.cfg.KeepPredicates,
			BackupBatches: st.cfg.BackupBudget,
			MaxDelayMS:    st.cfg.MaxDelay.Milliseconds(),
		})
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Name < metas[j].Name })
	data, err := json.MarshalIndent(metas, "", "  ")
	if err != nil {
		return err
	}
	framed := withCRCTrailer(data)
	if err := writeFileAtomic(filepath.Join(e.ft.cfg.Dir, ftStreamsFile), framed); err != nil {
		return err
	}
	if e.ft.cfg.MirrorDir != "" {
		return writeFileAtomic(filepath.Join(e.ft.cfg.MirrorDir, ftStreamsFile), framed)
	}
	return nil
}

// ftLogQuery appends a continuous query's text to the durable query log
// ("Wukong+S only needs to log all continuous queries to the persistent
// storage and simply re-register them after recovery").
func (e *Engine) ftLogQuery(text string) {
	st := e.ft
	st.mu.Lock()
	defer st.mu.Unlock()
	fmt.Fprintf(st.queryLog, "%s%s", text, ftQuerySep)
	st.queryLog.Sync()
	if st.queryLogM != nil {
		fmt.Fprintf(st.queryLogM, "%s%s", text, ftQuerySep)
		st.queryLogM.Sync()
	}
}

// ftLogBatch durably logs one injected batch. Runs on the injection path, so
// its cost is the paper's "logging delay for each batch".
func (e *Engine) ftLogBatch(sst *streamState, b stream.Batch) {
	st := e.ft
	start := time.Now()
	// Assemble the whole record first so its CRC32C frame covers exactly the
	// bytes that hit the disk, then append it to every sink in one write.
	var rec bytes.Buffer
	fmt.Fprintf(&rec, "B %s %d %d\n", sst.src.Name(), b.ID, len(b.Tuples))
	for _, t := range b.Tuples {
		tr, err := e.ss.DecodeTriple(t.EncodedTriple)
		if err != nil {
			continue // undecodable tuples cannot occur for tuples we encoded
		}
		fmt.Fprintf(&rec, "%s . @%d\n", tr, int64(t.TS))
	}
	sum := crc32.Checksum(rec.Bytes(), crcTable)
	fmt.Fprintf(&rec, "C %08x\n", sum)
	st.mu.Lock()
	for _, w := range st.sinks() {
		w.Write(rec.Bytes())
		w.Flush()
	}
	st.stats.LoggedBatches++
	st.stats.LoggedTuples += int64(len(b.Tuples))
	st.sinceCk++
	due := st.cfg.CheckpointEveryBatches > 0 && st.sinceCk >= st.cfg.CheckpointEveryBatches
	st.stats.LogTime += time.Since(start)
	st.mu.Unlock()
	if due {
		_ = e.Checkpoint()
	}
}

// ftVTSMeta persists the coordinator's progress at a checkpoint.
type ftVTSMeta struct {
	StableSN  uint32           `json:"stable_sn"`
	StableVTS map[string]int64 `json:"stable_vts"`
}

// Checkpoint makes logged state durable, persists the vector timestamps, and
// rotates the batch log. Sources are asked to trim their upstream-backup
// buffers below the checkpointed batches.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	st := e.ft
	if st == nil {
		e.mu.Unlock()
		return fmt.Errorf("core: FT not enabled")
	}
	meta := ftVTSMeta{StableSN: e.coord.StableSN(), StableVTS: map[string]int64{}}
	stable := e.coord.StableVTS()
	type trim struct {
		src    *stream.Source
		before tstore.BatchID
	}
	var trims []trim
	for name, sst := range e.streams {
		b := stable[sst.id]
		meta.StableVTS[name] = int64(b)
		trims = append(trims, trim{src: sst.src, before: b + 1})
	}
	e.mu.Unlock()

	st.mu.Lock()
	st.batchW.Flush()
	st.batchF.Sync()
	st.batchF.Close()
	if st.batchWM != nil {
		st.batchWM.Flush()
		st.batchFM.Sync()
		st.batchFM.Close()
	}
	st.ckptSeq++
	st.sinceCk = 0
	st.stats.Checkpoints++
	err := st.openBatchLog()
	st.mu.Unlock()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	framed := withCRCTrailer(data)
	if err := writeFileAtomic(filepath.Join(st.cfg.Dir, ftVTSFile), framed); err != nil {
		return err
	}
	if st.cfg.MirrorDir != "" {
		if err := writeFileAtomic(filepath.Join(st.cfg.MirrorDir, ftVTSFile), framed); err != nil {
			return err
		}
	}
	// Notify sources to flush buffered data up to the checkpoint.
	for _, t := range trims {
		t.src.TrimBackup(t.before)
	}
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
// the initial RDF data, re-registers the logged streams, replays the durable
// batch logs in order, and re-registers the logged continuous queries
// (callbacks come from the factory, since functions cannot be persisted).
// The recovered engine has FT re-enabled on the same directory.
func Recover(cfg Config, ftCfg FTConfig, initial []rdf.Triple, callbacks func(name string) func(*Result, FireInfo)) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.LoadTriples(initial)

	// Streams. The stream metadata is the root of the recovery: without it
	// nothing else can replay, so a corrupt frame here is a hard error (after
	// counting the quarantined record) rather than a silent stop.
	data, err := readCheckedFile(filepath.Join(ftCfg.Dir, ftStreamsFile))
	if err != nil {
		if errors.Is(err, ErrCorruptRecord) {
			e.obs.Counter(ftQuarantineCounter).Inc()
		}
		e.Close()
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	var metas []ftStreamMeta
	if err := json.Unmarshal(data, &metas); err != nil {
		e.Close()
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	sources := map[string]*stream.Source{}
	for _, m := range metas {
		src, err := e.RegisterStream(stream.Config{
			Name:             m.Name,
			BatchInterval:    time.Duration(m.BatchMS) * time.Millisecond,
			TimingPredicates: m.TimingPreds,
			KeepPredicates:   m.KeepPreds,
			BackupBudget:     m.BackupBatches,
			MaxDelay:         time.Duration(m.MaxDelayMS) * time.Millisecond,
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		sources[m.Name] = src
	}

	// Queries are re-registered BEFORE the batch logs replay: windows that
	// already fired before the crash then fire again over the replayed data
	// during AdvanceTo below — the paper's at-least-once contract (§5).
	// Clients deduplicate by the window's time information (FireInfo.At).
	qdata, err := os.ReadFile(filepath.Join(ftCfg.Dir, ftQueriesFile))
	if err != nil && !os.IsNotExist(err) {
		e.Close()
		return nil, err
	}
	seen := map[string]bool{}
	for _, text := range strings.Split(string(qdata), ftQuerySep) {
		if strings.TrimSpace(text) == "" || seen[text] {
			continue
		}
		seen[text] = true
		q, err := sparql.Parse(text)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("core: recover query log: %w", err)
		}
		var cb func(*Result, FireInfo)
		if callbacks != nil {
			cb = callbacks(q.Name)
		}
		if _, err := e.RegisterContinuous(text, cb); err != nil {
			e.Close()
			return nil, err
		}
	}

	// Replay batch logs in checkpoint order. A log with a truncated or corrupt
	// tail (the crash hit mid-write) replays up to its last complete batch;
	// nothing after the damage is replayed — later records could depend on the
	// lost ones. The upstream backup covers the gap in a real deployment.
	logs, err := filepath.Glob(filepath.Join(ftCfg.Dir, "batches.*.log"))
	if err != nil {
		e.Close()
		return nil, err
	}
	sort.Strings(logs)
	var maxTS rdf.Timestamp
	for _, path := range logs {
		ts, complete, err := replayBatchLog(e, sources, path)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("core: recover %s: %w", path, err)
		}
		if ts > maxTS {
			maxTS = ts
		}
		if !complete {
			break
		}
	}
	// Advance past every replayed batch so the recovered store is stable —
	// this also fires the re-registered queries' recovered windows.
	e.AdvanceTo(maxTS)

	if err := e.EnableFT(ftCfg); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// replayBatchLog replays one durable batch log and returns the highest batch
// end timestamp it covered. Records are buffered per batch and emitted only
// after their CRC32C trailer verifies, so a truncated tail (a crash mid-
// append) loses at most the damaged batch — replay stops at the last complete
// record and reports complete=false — and a bit-flipped record is quarantined
// (dropped + counted via ft_quarantined_records_total) instead of replayed.
func replayBatchLog(e *Engine, sources map[string]*stream.Source, path string) (rdf.Timestamp, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var maxTS rdf.Timestamp
	var cur *stream.Source
	var curEnd rdf.Timestamp
	var pending []string // raw tuple lines, parsed only after the CRC verifies
	var crcSum uint32
	remaining := 0
	inRec := false
	flush := func() error {
		for _, ln := range pending {
			tu, err := rdf.ParseTuple(ln)
			if err != nil {
				// The frame verified, so the record holds exactly the bytes we
				// wrote; an unparseable line is a logger bug, not corruption.
				return fmt.Errorf("verified record does not parse: %w", err)
			}
			// Replay bypasses admission control: every logged tuple was
			// admitted before the crash, and shedding it here would lose
			// durable data.
			if err := cur.EmitReplayed(tu); err != nil {
				return err
			}
		}
		if curEnd > maxTS {
			maxTS = curEnd
		}
		pending = pending[:0]
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case inRec && remaining == 0:
			// The only legal line here is the record's checksum trailer.
			var want uint32
			if !strings.HasPrefix(line, "C ") {
				return maxTS, false, nil // trailer lost: truncated tail
			}
			if _, err := fmt.Sscanf(line, "C %x", &want); err != nil || want != crcSum {
				// Quarantine: the record's bytes do not match the frame. Drop
				// it, count it, and stop — later records may depend on it.
				e.obs.Counter(ftQuarantineCounter).Inc()
				return maxTS, false, nil
			}
			if err := flush(); err != nil {
				return maxTS, false, err
			}
			inRec = false
		case strings.HasPrefix(line, "B "):
			if inRec {
				// A new header inside an unfinished batch: the previous
				// batch's tail was lost. Discard it and stop.
				return maxTS, false, nil
			}
			var name string
			var batch, n int64
			if _, err := fmt.Sscanf(line, "B %s %d %d", &name, &batch, &n); err != nil {
				return maxTS, false, nil // corrupt header: stop at last complete batch
			}
			src, ok := sources[name]
			if !ok {
				return 0, false, fmt.Errorf("log references unknown stream %q", name)
			}
			cur = src
			remaining = int(n)
			curEnd = src.BatchEnd(tstore.BatchID(batch))
			pending = pending[:0]
			inRec = true
			crcSum = crc32.Update(0, crcTable, append([]byte(line), '\n'))
		case !inRec:
			return maxTS, false, nil // stray tuple line: corrupt tail
		default:
			crcSum = crc32.Update(crcSum, crcTable, append([]byte(line), '\n'))
			pending = append(pending, line)
			remaining--
		}
	}
	if err := sc.Err(); err != nil {
		return maxTS, false, err
	}
	// A record still open at EOF is a truncated tail: its buffered tuples are
	// dropped, everything before it was already emitted.
	return maxTS, !inRec, nil
}
