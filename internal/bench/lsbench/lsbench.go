// Package lsbench generates an LSBench-like social-network workload
// (Le-Phuoc et al., "Linked Stream Data Processing Engines: Facts and
// Figures", ISWC 2012) — the paper's primary benchmark (§6.1, Table 1).
//
// The dataset models a social network: stored data holds user profiles and
// the follower graph plus historical posts, hashtags, and likes; five RDF
// streams carry new activity:
//
//	PO    posts (+ hashtags)      timeless
//	PO-L  post likes              timeless
//	PH    photos                  timeless
//	PH-L  photo likes             timeless
//	GPS   user positions          timing (transient-store only)
//
// Scale substitution (DESIGN.md §2): the paper uses the S3G2 generator at
// 118 M–3.75 B triples with 133 K tuples/s; this generator is deterministic
// (seeded) and defaults to a laptop-scale configuration with the same
// schema, stream mix, and — crucially — the same query selectivity classes:
// L1–L3 are selective (Group I: fixed-size results independent of data
// size), L4–L6 are non-selective (Group II: results grow with the data).
package lsbench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rdf"
	"repro/internal/strserver"
)

// Predicate IRIs (paper Fig. 1 vocabulary).
const (
	PredType    = "ty" // rdf:type
	PredFollow  = "fo" // follower edge
	PredPost    = "po" // user posts a post
	PredLike    = "li" // user likes a post
	PredHashtag = "ht" // post carries a hashtag
	PredPhoto   = "ph" // user posts a photo
	PredPhotoL  = "pl" // user likes a photo
	PredGPS     = "ga" // gps_add: user position (timing)
)

// Stream names (Table 1).
const (
	StreamPO  = "PO"
	StreamPOL = "PO-L"
	StreamPH  = "PH"
	StreamPHL = "PH-L"
	StreamGPS = "GPS"
)

// Streams lists all five stream names.
func Streams() []string {
	return []string{StreamPO, StreamPOL, StreamPH, StreamPHL, StreamGPS}
}

// Config sizes the workload.
type Config struct {
	Seed                int64
	Users               int // default 1000
	FollowsPerUser      int // default 16
	InitialPostsPerUser int // default 8
	InitialLikesPerPost int // default 2
	Hashtags            int // default 64

	// Stream rates in tuples per second. Defaults scale the paper's
	// 133 K tuples/s mix by 1/10 while preserving its proportions
	// (PO 10 K, PO-L 86 K, PH 10 K, PH-L 7.5 K, GPS 20 K).
	RatePO, RatePOL, RatePH, RatePHL, RateGPS int
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Users, 1000)
	def(&c.FollowsPerUser, 16)
	def(&c.InitialPostsPerUser, 8)
	def(&c.InitialLikesPerPost, 2)
	def(&c.Hashtags, 64)
	def(&c.RatePO, 1000)
	def(&c.RatePOL, 8600)
	def(&c.RatePH, 1000)
	def(&c.RatePHL, 750)
	def(&c.RateGPS, 2000)
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Workload is a generated dataset plus its stream generators.
type Workload struct {
	Cfg Config
	SS  *strserver.Server

	Initial []strserver.EncodedTriple

	users    []rdf.ID
	tags     []rdf.ID
	follows  [][]int32 // adjacency: user index -> followed user indexes
	posts    []rdf.ID  // all posts ever created (stored + streamed)
	photos   []rdf.ID
	preds    map[string]rdf.ID
	seq      int64 // fresh-entity counter
	streamRN map[string]*rand.Rand
}

// Generate builds the initial dataset deterministically.
func Generate(cfg Config, ss *strserver.Server) *Workload {
	cfg = cfg.withDefaults()
	w := &Workload{
		Cfg:      cfg,
		SS:       ss,
		preds:    make(map[string]rdf.ID),
		streamRN: make(map[string]*rand.Rand),
	}
	for i, name := range Streams() {
		w.streamRN[name] = rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, p := range []string{PredType, PredFollow, PredPost, PredLike, PredHashtag, PredPhoto, PredPhotoL, PredGPS} {
		id, err := ss.InternPredicate(p)
		if err != nil {
			panic("lsbench: the string server has no room for the workload's predicates: " + err.Error())
		}
		w.preds[p] = id
	}
	userType := w.ent("User")

	// Users.
	w.users = make([]rdf.ID, cfg.Users)
	for i := range w.users {
		w.users[i] = w.ent(fmt.Sprintf("user%d", i))
		w.add(w.users[i], PredType, userType)
	}
	// Follower graph: uniform random followees, no self-loops.
	w.follows = make([][]int32, cfg.Users)
	for i := range w.users {
		seen := map[int32]bool{}
		for len(seen) < cfg.FollowsPerUser {
			j := int32(rng.Intn(cfg.Users))
			if int(j) == i || seen[j] {
				continue
			}
			seen[j] = true
			w.follows[i] = append(w.follows[i], j)
			w.add(w.users[i], PredFollow, w.users[j])
		}
	}
	// Hashtags.
	w.tags = make([]rdf.ID, cfg.Hashtags)
	for i := range w.tags {
		w.tags[i] = w.ent(fmt.Sprintf("tag%d", i))
	}
	// Historical posts, hashtags, and likes.
	for i := range w.users {
		for p := 0; p < cfg.InitialPostsPerUser; p++ {
			post := w.freshEnt("post")
			w.posts = append(w.posts, post)
			w.add(w.users[i], PredPost, post)
			w.add(post, PredHashtag, w.tags[rng.Intn(len(w.tags))])
			for l := 0; l < cfg.InitialLikesPerPost; l++ {
				liker := w.users[rng.Intn(cfg.Users)]
				w.add(liker, PredLike, post)
			}
		}
		// One historical photo per user.
		photo := w.freshEnt("photo")
		w.photos = append(w.photos, photo)
		w.add(w.users[i], PredPhoto, photo)
	}
	return w
}

func (w *Workload) ent(name string) rdf.ID {
	return w.SS.InternEntity(rdf.NewIRI(name))
}

func (w *Workload) freshEnt(prefix string) rdf.ID {
	w.seq++
	return w.ent(fmt.Sprintf("%s%d", prefix, w.seq))
}

func (w *Workload) add(s rdf.ID, pred string, o rdf.ID) {
	w.Initial = append(w.Initial, strserver.EncodedTriple{S: s, P: w.preds[pred], O: o})
}

// UserName returns the IRI string of user k (query construction).
func (w *Workload) UserName(k int) string {
	return fmt.Sprintf("user%d", k%len(w.users))
}

// TagName returns the IRI string of hashtag k.
func (w *Workload) TagName(k int) string {
	return fmt.Sprintf("tag%d", k%len(w.tags))
}

// Users returns the number of users.
func (w *Workload) Users() int { return len(w.users) }

// rate returns a stream's configured tuples/second.
func (w *Workload) rate(stream string) int {
	switch stream {
	case StreamPO:
		return w.Cfg.RatePO
	case StreamPOL:
		return w.Cfg.RatePOL
	case StreamPH:
		return w.Cfg.RatePH
	case StreamPHL:
		return w.Cfg.RatePHL
	case StreamGPS:
		return w.Cfg.RateGPS
	default:
		return 0
	}
}

// TimingPredicates returns the timing-data predicates of a stream (only GPS
// carries timing data).
func TimingPredicates(stream string) []string {
	if stream == StreamGPS {
		return []string{PredGPS}
	}
	return nil
}

// StreamTuples deterministically generates a stream's tuples for the time
// range (from, to], at the configured rate with evenly spaced timestamps.
// Generated entities (new posts/photos) are recorded so later likes can
// reference them, keeping cross-stream joins productive.
func (w *Workload) StreamTuples(stream string, from, to rdf.Timestamp) []strserver.EncodedTuple {
	rate := w.rate(stream)
	if rate <= 0 || to <= from {
		return nil
	}
	rng := w.streamRN[stream]
	n := int(int64(to-from) * int64(rate) / 1000)
	if n == 0 {
		return nil
	}
	out := make([]strserver.EncodedTuple, 0, n)
	stepNS := float64(to-from) / float64(n)
	emit := func(i int, s rdf.ID, pred string, o rdf.ID) {
		ts := from + rdf.Timestamp(float64(i)*stepNS) + 1
		if ts > to {
			ts = to
		}
		out = append(out, strserver.EncodedTuple{
			EncodedTriple: strserver.EncodedTriple{S: s, P: w.preds[pred], O: o},
			TS:            ts,
		})
	}
	switch stream {
	case StreamPO:
		// Alternate post creation and hashtag tuples.
		var lastPost rdf.ID
		for i := 0; i < n; i++ {
			if i%2 == 0 || lastPost == 0 {
				u := rng.Intn(len(w.users))
				lastPost = w.freshEnt("post")
				w.posts = append(w.posts, lastPost)
				emit(i, w.users[u], PredPost, lastPost)
			} else {
				emit(i, lastPost, PredHashtag, w.tags[rng.Intn(len(w.tags))])
			}
		}
	case StreamPOL:
		for i := 0; i < n; i++ {
			// Like a recent post; half the likes come from a follower of a
			// random user so L3/L5-style joins have matches.
			post := w.recentPost(rng)
			liker := w.users[rng.Intn(len(w.users))]
			if rng.Intn(2) == 0 {
				u := rng.Intn(len(w.users))
				f := w.follows[u]
				if len(f) > 0 {
					liker = w.users[f[rng.Intn(len(f))]]
				}
			}
			emit(i, liker, PredLike, post)
		}
	case StreamPH:
		for i := 0; i < n; i++ {
			u := rng.Intn(len(w.users))
			photo := w.freshEnt("photo")
			w.photos = append(w.photos, photo)
			emit(i, w.users[u], PredPhoto, photo)
		}
	case StreamPHL:
		for i := 0; i < n; i++ {
			photo := w.photos[len(w.photos)-1-rng.Intn(min(len(w.photos), 64))]
			emit(i, w.users[rng.Intn(len(w.users))], PredPhotoL, photo)
		}
	case StreamGPS:
		for i := 0; i < n; i++ {
			pos := w.ent(fmt.Sprintf("pos-%d-%d", rng.Intn(90), rng.Intn(180)))
			emit(i, w.users[rng.Intn(len(w.users))], PredGPS, pos)
		}
	}
	return out
}

// recentPost picks a like target among the most recent posts: social
// activity concentrates heavily on fresh content, which also makes
// per-batch stream-index entries amortize over many tuples (Table 7).
func (w *Workload) recentPost(rng *rand.Rand) rdf.ID {
	return w.posts[len(w.posts)-1-rng.Intn(min(len(w.posts), 64))]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DefaultWindow is the paper's LSBench window setting: RANGE 1s STEP 100ms.
const DefaultWindow = "[RANGE 1s STEP 100ms]"

// QueryL returns the C-SPARQL text of continuous query Ln (1–6). The start
// vertex of selective queries (L1–L3) is chosen by `start` ("the start point
// is randomly selected from the same type of vertices", §6.6).
func (w *Workload) QueryL(n, start int) string {
	user := w.UserName(start)
	switch n {
	case 1:
		// Group I, stream-only: posts by one user in the window.
		return fmt.Sprintf(`REGISTER QUERY L1_%d AS
SELECT ?P
FROM PO %s
WHERE { GRAPH PO { %s po ?P } }`, start, DefaultWindow, user)
	case 2:
		// Group I, stream+stored: window posts by people the user follows.
		return fmt.Sprintf(`REGISTER QUERY L2_%d AS
SELECT ?F ?P
FROM PO %s
WHERE { %s fo ?F . GRAPH PO { ?F po ?P } }`, start, DefaultWindow, user)
	case 3:
		// Group I, two streams+stored: likes on window posts by followees.
		return fmt.Sprintf(`REGISTER QUERY L3_%d AS
SELECT ?F ?P ?V
FROM PO %s
FROM PO-L %s
WHERE { %s fo ?F . GRAPH PO { ?F po ?P } . GRAPH PO-L { ?V li ?P } }`,
			start, DefaultWindow, DefaultWindow, user)
	case 4:
		// Group II, stream-only: all window posts with their hashtags.
		return fmt.Sprintf(`REGISTER QUERY L4_%d AS
SELECT ?U ?P ?T
FROM PO %s
WHERE { GRAPH PO { ?U po ?P } . GRAPH PO { ?P ht ?T } }`, start, DefaultWindow)
	case 5:
		// Group II, streams+stored: the paper's QC shape.
		return fmt.Sprintf(`REGISTER QUERY L5_%d AS
SELECT ?U ?V ?P
FROM PO %s
FROM PO-L %s
WHERE { GRAPH PO { ?U po ?P } . ?U fo ?V . GRAPH PO-L { ?V li ?P } }`,
			start, DefaultWindow, DefaultWindow)
	case 6:
		// Group II, photo streams+stored.
		return fmt.Sprintf(`REGISTER QUERY L6_%d AS
SELECT ?U ?V ?F
FROM PH %s
FROM PH-L %s
WHERE { GRAPH PH { ?U ph ?F } . ?U ty User . GRAPH PH-L { ?V pl ?F } }`,
			start, DefaultWindow, DefaultWindow)
	default:
		panic(fmt.Sprintf("lsbench: no such continuous query L%d", n))
	}
}

// QueryStreams returns the streams continuous query Ln consumes (Table 1).
func QueryStreams(n int) []string {
	switch n {
	case 1, 2, 4:
		return []string{StreamPO}
	case 3, 5:
		return []string{StreamPO, StreamPOL}
	case 6:
		return []string{StreamPH, StreamPHL}
	default:
		panic(fmt.Sprintf("lsbench: no such continuous query L%d", n))
	}
}

// QueryS returns one-shot query Sn (1–6) over the stored data.
func (w *Workload) QueryS(n, start int) string {
	user := w.UserName(start)
	tag := w.TagName(start)
	switch n {
	case 1:
		return fmt.Sprintf(`SELECT ?P WHERE { %s fo ?F . ?F po ?P }`, user)
	case 2:
		return fmt.Sprintf(`SELECT ?T WHERE { %s po ?P . ?P ht ?T }`, user)
	case 3:
		return fmt.Sprintf(`SELECT ?F WHERE { %s fo ?F . ?F ty User }`, user)
	case 4:
		return fmt.Sprintf(`SELECT ?U ?P WHERE { ?U po ?P . ?P ht %s }`, tag)
	case 5:
		return fmt.Sprintf(`SELECT ?V WHERE { %s po ?P . ?V li ?P }`, user)
	case 6:
		return fmt.Sprintf(`SELECT ?U ?F ?P WHERE { ?U fo ?F . ?F po ?P . ?P ht %s }`, tag)
	default:
		panic(fmt.Sprintf("lsbench: no such one-shot query S%d", n))
	}
}

// StreamConfigs returns the engine stream configurations (100 ms batches,
// the paper's mini-batch interval).
func StreamConfigs() []StreamSpec {
	var out []StreamSpec
	for _, name := range Streams() {
		out = append(out, StreamSpec{
			Name:          name,
			BatchInterval: 100 * time.Millisecond,
			TimingPreds:   TimingPredicates(name),
		})
	}
	return out
}

// StreamSpec mirrors stream.Config without importing the stream package
// (lsbench is also consumed by baselines that have no engine).
type StreamSpec struct {
	Name          string
	BatchInterval time.Duration
	TimingPreds   []string
}
