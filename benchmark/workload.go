package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"longtailrec/internal/dataset"
	"longtailrec/internal/synth"
	"longtailrec/internal/worlds"
)

// The benchmark owns every input it feeds the server: corpora and op
// streams are functions of -seed alone, and an FNV-64 of each is printed
// into the results (and pinned for seed 1 by the golden test) so that
// drift in internal/synth or internal/worlds changes a hash loudly
// instead of changing the workload silently.

// recommendK is the list size of every read.
const recommendK = 10

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one request of a workload stream.
type op struct {
	kind  opKind
	user  int
	item  int     // writes only
	score float64 // writes only
}

// corpus is a rating set plus the shape facts the op streams need.
type corpus struct {
	kind               string
	numUsers, numItems int
	ratings            []dataset.Rating
	// islands > 1 means users and items are split evenly into that many
	// blocks with no rating crossing a block ("clustered").
	islands int
}

// Zipf bootstrap corpus shape (BENCH_10 zipf_soak's, at 30k users).
const (
	zipfUsers    = 30000
	zipfItems    = 5000
	zipfPerUser  = 6
	zipfExponent = 1.15
)

// zipfCorpus draws perUser ratings per user with zipf-distributed items,
// so the catalog has long-tail popularity skew at a user count the
// latent-genre generator would take far longer to reach. A repeated
// (user, item) draw keeps the last score, as a live upsert would.
func zipfCorpus(users, items, perUser int, seed int64) []dataset.Rating {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfExponent, 1, uint64(items-1))
	ratings := make([]dataset.Rating, 0, users*perUser)
	seen := make(map[int]int, perUser)
	for u := 0; u < users; u++ {
		base := len(ratings)
		for k := 0; k < perUser; k++ {
			item := int(z.Uint64())
			score := float64(1 + r.Intn(5))
			if at, dup := seen[item]; dup {
				ratings[at].Score = score
				continue
			}
			seen[item] = len(ratings)
			ratings = append(ratings, dataset.Rating{User: u, Item: item, Score: score})
		}
		for k := base; k < len(ratings); k++ {
			delete(seen, ratings[k].Item)
		}
	}
	return ratings
}

// buildCorpus makes the named corpus from the seed. small shrinks it for
// the smoke test (same generators, a fraction of the universe).
func buildCorpus(kind string, seed int64, small bool) (*corpus, error) {
	if kind == "zipf" {
		users, items := zipfUsers, zipfItems
		if small {
			users, items = 1500, 300
		}
		return &corpus{kind: kind, numUsers: users, numItems: items,
			ratings: zipfCorpus(users, items, zipfPerUser, seed), islands: 1}, nil
	}
	cfg, err := worlds.Config(kind, seed)
	if err != nil {
		return nil, err
	}
	if small {
		if cfg.Clusters > 1 {
			cfg.NumUsers, cfg.NumItems = cfg.Clusters*60, cfg.Clusters*80
		} else {
			cfg.NumUsers, cfg.NumItems = 300, 200
		}
	}
	w, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	islands := cfg.Clusters
	if islands < 1 {
		islands = 1
	}
	return &corpus{kind: kind, numUsers: cfg.NumUsers, numItems: cfg.NumItems,
		ratings: w.Data.Ratings(), islands: islands}, nil
}

// hash is the FNV-64a of the ratings in generation order.
func (c *corpus) hash() uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, r := range c.ratings {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.User))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Item))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// workload is one traffic mix. Its zero fields are meaningful: openRate 0
// is a closed loop, hotUsers 0 reads distinct users, writeEvery 0 never
// writes.
type workload struct {
	name string
	// why is the one line BENCHMARK.json and the README carry.
	why    string
	corpus string
	algo   string
	// openRate > 0 paces reads on an absolute schedule at that many
	// requests per second, timed from their due time; 0 runs numClients
	// closed-loop clients with no think time, timed from send.
	openRate float64
	// hotUsers > 0 draws zipf(readExponent) ranks over that many users of
	// the seeded permutation; 0 walks the permutation, one user each.
	hotUsers int
	// prefill reads every hot user once before the phase, so the phase
	// sees hits only.
	prefill bool
	// writeEvery n makes every n-th op of a client a write.
	writeEvery int
	// wal turns the write-ahead log on in a fresh directory.
	wal bool
	// tracedOps is how many ops the single-client traced pass replays.
	tracedOps int
}

const (
	numClients   = 2 // connections driving every phase
	readExponent = 1.1
	// warmupOps is the fixed op list that closes set-up: enough cold
	// reads to fault in the engine scratch and the HTTP path.
	warmupOps = 16
)

var workloads = []workload{
	{
		name:      "cold_walk",
		why:       "distinct users at 25 req/s open loop: every read is a cache miss, so graph extraction and the sweeps are the whole request",
		corpus:    "movielens",
		algo:      "AC2",
		openRate:  25,
		tracedOps: 128,
	},
	{
		name:      "big_universe",
		why:       "30k-user zipf corpus, AT, 20 req/s open loop: items < mu so the subgraph is the whole component, where walk cost follows universe size",
		corpus:    "zipf",
		algo:      "AT",
		openRate:  20,
		tracedOps: 64,
	},
	{
		name:      "hot_read",
		why:       "zipf reads over pre-read users, 2 closed-loop clients: all hits, so HTTP, the handler and the cache lookup are the whole request",
		corpus:    "movielens",
		algo:      "AC2",
		hotUsers:  500,
		prefill:   true,
		tracedOps: 512,
	},
	{
		name:       "mixed_rw",
		why:        "8 reads then 1 durable write per client on the clustered corpus with the WAL on: revalidation, journal, group commit, fold and checkpoint run beside reads",
		corpus:     "clustered",
		algo:       "AC2",
		hotUsers:   -1, // every user
		writeEvery: 9,
		wal:        true,
		tracedOps:  512,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// stream is one client's seeded op source. All clients of a run share
// the user permutation; each owns its random draws.
type stream struct {
	wl     *workload
	c      *corpus
	perm   []int
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf
	n      int // ops produced so far
}

// userPerm is the seeded permutation every stream of a run reads users
// from.
func userPerm(c *corpus, seed int64) []int {
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(c.numUsers)
}

func newStream(wl *workload, c *corpus, perm []int, seed int64, client int) *stream {
	s := &stream{wl: wl, c: c, perm: perm, client: client,
		rng: rand.New(rand.NewSource(seed + 7919*int64(client+1)))}
	if hot := s.hotSet(); hot > 0 {
		s.zipf = rand.NewZipf(s.rng, readExponent, 1, uint64(hot-1))
	}
	return s
}

// hotSet is how many users of the permutation the zipf ranks cover.
func (s *stream) hotSet() int {
	if s.wl.hotUsers < 0 || s.wl.hotUsers > s.c.numUsers {
		return s.c.numUsers
	}
	return s.wl.hotUsers
}

// next produces the client's next op. A distinct-user stream walks the
// permutation in order; only client 0 runs one, so no user is read
// twice before the permutation is exhausted.
func (s *stream) next() op {
	i := s.n
	s.n++
	var user int
	if s.zipf != nil {
		user = s.perm[int(s.zipf.Uint64())]
	} else {
		user = s.perm[i%len(s.perm)]
	}
	if s.wl.writeEvery > 0 && i%s.wl.writeEvery == s.wl.writeEvery-1 {
		return s.writeFor(user)
	}
	return op{kind: opRead, user: user}
}

// take produces the next n ops.
func (s *stream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// writeFor makes the user rate a uniform item of the first half of their
// own island's catalog. The other half is never written, so however long
// a run lasts a hot user keeps unrated items to be recommended. Item
// parity is the client index, so two clients running at once never write
// the same (user, item) pair and "the last acknowledged score" is defined.
func (s *stream) writeFor(user int) op {
	perIsland := s.c.numItems / s.c.islands
	island := user / (s.c.numUsers / s.c.islands)
	slot := s.rng.Intn(perIsland/2/numClients)*numClients + s.client%numClients
	return op{kind: opWrite, user: user, item: island*perIsland + slot, score: float64(1 + s.rng.Intn(5))}
}

// distinctBudget checks that a distinct-user run (phase, traced pass and
// warm-up) fits the corpus without reading a user twice.
func distinctBudget(c *corpus, phaseOps, tracedOps int) error {
	if need := phaseOps + tracedOps + warmupOps; need > c.numUsers {
		return fmt.Errorf("run wants %d distinct users, corpus has %d: shorten -seconds", need, c.numUsers)
	}
	return nil
}

// warmupList is the fixed op list that ends set-up: cold reads of users
// from the tail of the permutation, which no phase reaches.
func warmupList(perm []int) []op {
	ops := make([]op, warmupOps)
	for i := range ops {
		ops[i] = op{kind: opRead, user: perm[len(perm)-1-i]}
	}
	return ops
}

// hashOps is the FNV-64a of an op list.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	var b [25]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(o.user))
		binary.LittleEndian.PutUint64(b[9:], uint64(o.item))
		binary.LittleEndian.PutUint64(b[17:], math.Float64bits(o.score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// firstOps is the head of a workload's op stream for hashing: the open
// loop's one stream, or each closed-loop client's stream in client order.
func firstOps(wl *workload, c *corpus, seed int64, total int) []op {
	perm := userPerm(c, seed)
	clients := numClients
	if wl.openRate > 0 {
		clients = 1
	}
	ops := make([]op, 0, total)
	for cl := 0; cl < clients; cl++ {
		ops = append(ops, newStream(wl, c, perm, seed, cl).take(total/clients)...)
	}
	return ops
}
