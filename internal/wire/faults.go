// Wire-level fault injection, the repository's one fault injector. It
// mangles real bytes on real sockets — dropping encoded frames, delaying
// them, duplicating them, flipping bits, or cutting the connection
// mid-frame — so the receive path's CRC, dedup, and resync machinery is
// exercised against genuine on-wire damage. It acts on the frames of an
// established connection; the Hello/HelloAck handshake that opens one is
// written past it, so a redial after a dropped connection reaches a live
// peer.
//
// All draws come from one seeded RNG under one lock: the same seed and the
// same write sequence injects the same faults. An injected drop is the one
// failure a caller may safely repeat: the frame never reached the socket,
// so it wraps ErrDropped and Transient reports it.
package wire

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrDropped is the one retryable delivery failure: the fault injector
// discarded the frame before it was written, so the peer never saw it and
// sending it again cannot deliver it twice.
var ErrDropped = errors.New("message dropped")

// Transient reports whether err is an injected drop. Every other failure —
// a peer that is down, a timed-out round trip, a closed transport — is
// persistent: repeating the operation at once cannot help.
func Transient(err error) bool { return errors.Is(err, ErrDropped) }

// Action is the fate the injector assigns to one outgoing frame.
type Action int

const (
	// ActPass delivers the frame untouched.
	ActPass Action = iota
	// ActDrop discards the frame without writing (reported as ErrDropped).
	ActDrop
	// ActDup writes the frame twice; the receiver must quarantine the copy.
	ActDup
	// ActCorrupt flips one bit in the encoded frame after the magic; the
	// receiver must quarantine the frame without killing the connection.
	ActCorrupt
	// ActTruncate writes a strict prefix of the frame and then kills the
	// connection — a crash mid-write. The receiver must reset the stream.
	ActTruncate
)

func (a Action) String() string {
	switch a {
	case ActPass:
		return "pass"
	case ActDrop:
		return "drop"
	case ActDup:
		return "dup"
	case ActCorrupt:
		return "corrupt"
	case ActTruncate:
		return "truncate"
	default:
		return "action(?)"
	}
}

// FaultsConfig sets per-frame fault probabilities. Probabilities are drawn
// in the declared order and at most one action fires per frame; Delay is
// drawn independently and can accompany any action.
type FaultsConfig struct {
	DropProb     float64
	DupProb      float64
	CorruptProb  float64
	TruncateProb float64
	DelayProb    float64
	Delay        time.Duration
}

// FaultsStats counts injected wire faults by kind.
type FaultsStats struct {
	Dropped   int64
	Dupped    int64
	Corrupted int64
	Truncated int64
	Delayed   int64
}

// Faults is a seeded frame-layer fault injector. A nil *Faults is valid and
// injects nothing. All methods are safe for concurrent use.
type Faults struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	cfg   FaultsConfig
	stats FaultsStats
}

// NewFaults builds an injector with a deterministic RNG seeded by seed.
func NewFaults(seed int64, cfg FaultsConfig) *Faults {
	return &Faults{rng: rand.New(rand.NewSource(seed)), seed: seed, cfg: cfg}
}

// Seed returns the injector's seed (for reproduction reports).
func (f *Faults) Seed() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seed
}

// Stats snapshots the injected-fault counters.
func (f *Faults) Stats() FaultsStats {
	if f == nil {
		return FaultsStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// draw decides one frame's fate: an action, extra bytes context for the
// mangling actions (corrupt bit index, truncate length), and a delay.
// frameLen is the encoded frame size.
func (f *Faults) draw(frameLen int) (Action, int, time.Duration) {
	if f == nil {
		return ActPass, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var delay time.Duration
	if f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb {
		f.stats.Delayed++
		delay = f.cfg.Delay
	}
	switch {
	case f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb:
		f.stats.Dropped++
		return ActDrop, 0, delay
	case f.cfg.DupProb > 0 && f.rng.Float64() < f.cfg.DupProb:
		f.stats.Dupped++
		return ActDup, 0, delay
	case f.cfg.CorruptProb > 0 && f.rng.Float64() < f.cfg.CorruptProb:
		f.stats.Corrupted++
		// Flip a bit after the magic so the damage is quarantinable: magic
		// damage would desync the stream, which is ActTruncate's job.
		bit := 4*8 + f.rng.Intn((frameLen-4)*8)
		return ActCorrupt, bit, delay
	case f.cfg.TruncateProb > 0 && f.rng.Float64() < f.cfg.TruncateProb:
		f.stats.Truncated++
		// A strict prefix: at least one byte written, at least one missing.
		return ActTruncate, 1 + f.rng.Intn(frameLen-1), delay
	}
	return ActPass, 0, delay
}
