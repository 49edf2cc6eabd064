package bayes

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"webrev/internal/memo"
)

// defaultMemoSize is the per-model capacity of the frozen classifier's
// token memo. Template-generated pages repeat the same token texts across
// thousands of documents; 4096 entries covers the working set of the
// synthetic corpus many times over while bounding memory.
const defaultMemoSize = 4096

// Frozen is an immutable compiled snapshot of a Classifier: the per-class
// log priors and per-token log-likelihoods are precomputed once, so
// classification is pure table lookups and additions — no math.Log on the
// hot path. A Frozen is safe for concurrent use and is shared across all
// worker shards of a build (both the batch and sharded paths), together
// with its token memo: a repeated token costs one cache probe.
//
// Scores are bit-identical to Classifier.Classify: the tables store the
// result of the exact same floating-point expressions the unfrozen
// classifier evaluates per call, and per-class sums accumulate in the same
// word order.
type Frozen struct {
	classes    []string             // sorted, deterministic iteration
	prior      []float64            // log(classDocs/totalDocs), per class
	logp       []map[string]float64 // word -> log((count+1)/(total+v)), per class
	unknown    []float64            // log(1/(total+v)), per class
	minLogOdds float64
	trained    bool

	memo *memo.Cache[frozenHit]
}

// frozenHit is one memoized classification outcome.
type frozenHit struct {
	class string
	score float64
}

// Freeze compiles the classifier's current training state into a Frozen
// snapshot. The snapshot is cached: repeated calls return the same pointer
// until Train adds data or MinLogOdds changes, so call sites may freeze
// per classification without paying a rebuild. Freeze is safe to call from
// multiple goroutines; concurrent first calls may build the snapshot twice
// and keep either (both are identical).
func (c *Classifier) Freeze() *Frozen {
	if f := c.frozen.Load(); f != nil && f.minLogOdds == c.MinLogOdds {
		return f
	}
	f := c.buildFrozen()
	c.frozen.Store(f)
	return f
}

func (c *Classifier) buildFrozen() *Frozen {
	f := &Frozen{
		minLogOdds: c.MinLogOdds,
		trained:    c.totalDocs > 0,
	}
	if !f.trained {
		return f
	}
	f.memo = memo.New[frozenHit](defaultMemoSize)
	f.classes = make([]string, 0, len(c.classDocs))
	for class := range c.classDocs {
		f.classes = append(f.classes, class)
	}
	sort.Strings(f.classes)
	v := float64(len(c.vocab))
	f.prior = make([]float64, len(f.classes))
	f.unknown = make([]float64, len(f.classes))
	f.logp = make([]map[string]float64, len(f.classes))
	for i, class := range f.classes {
		f.prior[i] = math.Log(float64(c.classDocs[class]) / float64(c.totalDocs))
		wc := c.classWords[class]
		total := float64(c.classTotals[class])
		// The same expression Classifier.Classify evaluates, with wc[w]
		// present (count) and absent (zero): precomputing it preserves
		// bit-identical scores.
		f.unknown[i] = math.Log((float64(0) + 1) / (total + v))
		m := make(map[string]float64, len(c.vocab))
		for w := range c.vocab {
			m[w] = math.Log((float64(wc[w]) + 1) / (total + v))
		}
		f.logp[i] = m
	}
	return f
}

// Trained reports whether the snapshot carries any training data.
func (f *Frozen) Trained() bool { return f.trained }

// Classes returns the class names known to the snapshot, sorted.
func (f *Frozen) Classes() []string { return f.classes }

// classifyScratch holds the reusable per-call buffers of Frozen.Classify.
type classifyScratch struct {
	word   []byte
	scores []float64
}

var scratchPool = sync.Pool{
	New: func() any { return &classifyScratch{word: make([]byte, 0, 64)} },
}

// Classify returns the most probable class for text and its
// log-probability score, exactly as Classifier.Classify would, at table
// lookup cost. Repeated texts are served from the memo. Safe for
// concurrent use.
func (f *Frozen) Classify(text string) (string, float64) {
	if !f.trained {
		return Unknown, 0
	}
	if hit, ok := f.memo.Get(text); ok {
		return hit.class, hit.score
	}
	s := scratchPool.Get().(*classifyScratch)
	if cap(s.scores) < len(f.classes) {
		s.scores = make([]float64, len(f.classes))
	}
	scores := s.scores[:len(f.classes)]
	copy(scores, f.prior)
	words := 0
	// Tokenize word-by-word into the scratch byte buffer and fold each
	// word's per-class log-likelihood into the running sums. The word is
	// only ever used as a map-lookup key (string(s.word) in an index
	// expression compiles to a no-allocation lookup), so a full []string
	// materialization is never needed.
	flush := func() {
		if len(s.word) == 0 {
			return
		}
		words++
		for i, m := range f.logp {
			if lp, ok := m[string(s.word)]; ok {
				scores[i] += lp
			} else {
				scores[i] += f.unknown[i]
			}
		}
		s.word = s.word[:0]
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			r = unicode.ToLower(r)
			if r < 0x80 {
				s.word = append(s.word, byte(r))
			} else {
				s.word = utf8.AppendRune(s.word, r)
			}
		} else {
			flush()
		}
	}
	flush()
	if words == 0 {
		s.scores = scores
		scratchPool.Put(s)
		return Unknown, 0
	}
	best, second := math.Inf(-1), math.Inf(-1)
	bestClass := Unknown
	for i, score := range scores {
		if score > best {
			second = best
			best = score
			bestClass = f.classes[i]
		} else if score > second {
			second = score
		}
	}
	s.scores = scores
	scratchPool.Put(s)
	if f.minLogOdds > 0 && len(f.classes) > 1 && best-second < f.minLogOdds {
		bestClass = Unknown
	}
	// Clone the key: text is often a sub-slice of a whole parsed document,
	// and retaining it in the memo would pin the document's backing array.
	f.memo.Add(strings.Clone(text), frozenHit{class: bestClass, score: best})
	return bestClass, best
}
