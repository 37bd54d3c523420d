package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"semfeed/internal/assignments"
)

// Workload inputs. Every function here is a pure function of its seed
// arguments: the same seed gives the same sources and the same arrival
// schedule, and the program under test only ever sees the generated sources.

// Sample sizes and traffic shape. These are fixed so that a faster program
// faces the same load as a slower one.
const (
	// tableSample is the per-assignment Table I sample (the size
	// BENCH_tableone.json was measured with).
	tableSample = 200
	// brokenShare is the fraction of served sources given a syntax break.
	brokenShare = 0.05
	// poolSize is the serve-resubmit source pool, well below the server's
	// default 4096-entry result store.
	poolSize = 1024
	// zipfS is the Zipf exponent of serve-resubmit draws from the pool.
	zipfS = 1.1
	// functestWindow is how many tableone-functest submissions make one
	// window of its medians.
	functestWindow = 300
)

// rng streams: each use of randomness draws from its own stream so that,
// for example, changing a rate does not reshuffle the sources.
const (
	streamSources = iota + 1
	streamArrivals
	streamPool
	streamDraws
	streamCheck
	streamOrder
)

func newRand(seed int64, stream, phase int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)<<32|uint64(phase)))
}

// passSampleSeed is the synth.SampleSeed seed of one tableone pass. Pass 0 of
// seed s is SampleSeed(n, s), so seed 0 pass 0 is the Table I sample.
func passSampleSeed(seed int64, pass int) int64 {
	return seed + int64(pass)*1_000_003
}

// tableSource is one Table I submission of a pass.
type tableSource struct {
	a   *assignments.Assignment
	src string
}

// tablePass renders the sources of one tableone pass, grouped by assignment
// in Table I order.
func tablePass(seed int64, pass int) [][]tableSource {
	all := assignments.All()
	out := make([][]tableSource, len(all))
	for i, a := range all {
		for _, k := range a.Synth.SampleSeed(tableSample, passSampleSeed(seed, pass)) {
			out[i] = append(out[i], tableSource{a: a, src: a.Synth.Render(k)})
		}
	}
	return out
}

// submission is one served request's input.
type submission struct {
	a      *assignments.Assignment
	src    string
	broken bool // carries a syntax break; the expected answer is 422
}

// newSubmission draws a fresh source: a uniformly chosen assignment, a
// uniformly chosen point of its synthetic space, a seeded syntax break on
// about brokenShare of sources, and a trailing comment that makes the text
// distinct even where the space is small.
func newSubmission(r *rand.Rand, tag string) submission {
	all := assignments.All()
	a := all[r.IntN(len(all))]
	src := a.Synth.Render(r.Int64N(a.Synth.Size()))
	broken := r.Float64() < brokenShare
	if broken {
		src = breakSource(src, r)
	}
	return submission{a: a, src: src + "\n// submission " + tag + "\n", broken: broken}
}

// coldPhase returns the distinct submissions of one serve-cold phase.
func coldPhase(seed int64, phase, n int) []submission {
	r := newRand(seed, streamSources, phase)
	out := make([]submission, n)
	for i := range out {
		out[i] = newSubmission(r, fmt.Sprintf("%d-%d-%d", seed, phase, i))
	}
	return out
}

// resubmitPool returns the serve-resubmit pool.
func resubmitPool(seed int64) []submission {
	r := newRand(seed, streamPool, 0)
	out := make([]submission, poolSize)
	for i := range out {
		out[i] = newSubmission(r, fmt.Sprintf("%d-pool-%d", seed, i))
	}
	return out
}

// resubmitPhase draws one phase's requests from the pool, Zipf-style: a few
// sources are resubmitted very often, most rarely.
func resubmitPhase(pool []submission, seed int64, phase, n int) []submission {
	z := rand.NewZipf(newRand(seed, streamDraws, phase), zipfS, 1, uint64(len(pool)-1))
	out := make([]submission, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// poissonSchedule returns n due times, offsets from the phase start, of a
// Poisson arrival process at rate requests per second.
func poissonSchedule(seed int64, phase int, rate float64, n int) []time.Duration {
	r := newRand(seed, streamArrivals, phase)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(math.Round(t * 1e9))
	}
	return out
}

// breakSource deletes one `}` or one statement-ending `;` outside literals and
// comments. Deleting a `}` unbalances the braces; the `;` candidates are those
// that end a line whose next token starts with a letter or `}`, so the two
// statements run together. Either way the result is not valid Java.
func breakSource(src string, r *rand.Rand) string {
	var braces, semis []int
	code := codeMask(src)
	for i := 0; i < len(src); i++ {
		if !code[i] {
			continue
		}
		switch src[i] {
		case '}':
			braces = append(braces, i)
		case ';':
			if endsStatementLine(src, i) {
				semis = append(semis, i)
			}
		}
	}
	cands := braces
	if len(semis) > 0 && r.IntN(2) == 0 {
		cands = semis
	}
	i := cands[r.IntN(len(cands))]
	return src[:i] + src[i+1:]
}

// endsStatementLine reports whether the `;` at i is the last character of its
// line and the next non-blank character is a letter or `}`.
func endsStatementLine(src string, i int) bool {
	j := i + 1
	for j < len(src) && (src[j] == ' ' || src[j] == '\t' || src[j] == '\r') {
		j++
	}
	if j >= len(src) || src[j] != '\n' {
		return false
	}
	for j < len(src) && (src[j] == ' ' || src[j] == '\t' || src[j] == '\r' || src[j] == '\n') {
		j++
	}
	if j >= len(src) {
		return false
	}
	c := src[j]
	return c == '}' || c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// codeMask marks the bytes of src that are code: not inside a string or char
// literal or a comment.
func codeMask(src string) []bool {
	mask := make([]bool, len(src))
	for i := 0; i < len(src); i++ {
		switch {
		case src[i] == '"' || src[i] == '\'':
			q := src[i]
			for i++; i < len(src) && src[i] != q && src[i] != '\n'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case src[i] == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case src[i] == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				i++
			}
			i++
		default:
			mask[i] = true
		}
	}
	return mask
}
