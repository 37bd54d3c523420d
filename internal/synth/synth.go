// Package synth generates synthetic student submissions following the
// paper's methodology (Section VI-A): error-model rules à la Singh et al.
// define choice points in a reference solution, and the cross product of all
// options is the explicit search space of correct and incorrect submissions.
// The space size |S| is exactly the product of per-choice option counts,
// which is how the S column of Table I is defined.
package synth

import (
	"fmt"
	"strings"
)

// Choice is one choice point. Options[0] is the reference (correct) variant;
// later options encode common student errors or benign stylistic variants.
type Choice struct {
	ID      string
	Options []string
}

// Spec describes one assignment's submission space: a source template whose
// @{id} placeholders are substituted by choice options.
type Spec struct {
	Name     string
	Template string
	Choices  []Choice
}

// Validate checks that every placeholder has a choice and vice versa, and
// that every choice has at least one option. Options may themselves contain
// placeholders (e.g. a print option referencing the chosen variable name);
// usage is therefore checked over the template and every option text.
func (s *Spec) Validate() error {
	seen := map[string]bool{}
	all := s.Template
	for _, c := range s.Choices {
		if len(c.Options) == 0 {
			return fmt.Errorf("synth %s: choice %s has no options", s.Name, c.ID)
		}
		if seen[c.ID] {
			return fmt.Errorf("synth %s: duplicate choice %s", s.Name, c.ID)
		}
		seen[c.ID] = true
		all += strings.Join(c.Options, " ")
	}
	for _, c := range s.Choices {
		if !strings.Contains(all, "@{"+c.ID+"}") {
			return fmt.Errorf("synth %s: choice %s unused", s.Name, c.ID)
		}
	}
	rest := all
	for {
		i := strings.Index(rest, "@{")
		if i < 0 {
			break
		}
		j := strings.Index(rest[i:], "}")
		if j < 0 {
			return fmt.Errorf("synth %s: unterminated placeholder", s.Name)
		}
		id := rest[i+2 : i+j]
		if !seen[id] {
			return fmt.Errorf("synth %s: placeholder @{%s} has no choice", s.Name, id)
		}
		rest = rest[i+j:]
	}
	// Rendering must terminate: verify on the reference rendering.
	if strings.Contains(s.Reference(), "@{") {
		return fmt.Errorf("synth %s: circular placeholder references", s.Name)
	}
	return nil
}

// Size returns |S|, the product of option counts.
func (s *Spec) Size() int64 {
	size := int64(1)
	for _, c := range s.Choices {
		size *= int64(len(c.Options))
	}
	return size
}

// Decode expands a submission index into per-choice option indexes
// (mixed-radix, first choice most significant).
func (s *Spec) Decode(k int64) []int {
	idx := make([]int, len(s.Choices))
	for i := len(s.Choices) - 1; i >= 0; i-- {
		n := int64(len(s.Choices[i].Options))
		idx[i] = int(k % n)
		k /= n
	}
	return idx
}

// RenderIdx renders the submission with explicit per-choice option indexes.
// Substitution runs in passes so that options may reference other choices
// (bounded to tolerate accidental cycles).
func (s *Spec) RenderIdx(idx []int) string {
	src := s.Template
	for pass := 0; pass < 8 && strings.Contains(src, "@{"); pass++ {
		for i, c := range s.Choices {
			src = strings.ReplaceAll(src, "@{"+c.ID+"}", c.Options[idx[i]])
		}
	}
	return src
}

// Render renders submission number k of the space.
func (s *Spec) Render(k int64) string {
	return s.RenderIdx(s.Decode(k))
}

// Reference renders the all-correct submission (option 0 everywhere).
func (s *Spec) Reference() string {
	return s.RenderIdx(make([]int, len(s.Choices)))
}

// IndexWith returns the all-reference index vector with the named choices
// overridden; it panics on unknown choice IDs (a test-authoring error).
func (s *Spec) IndexWith(overrides map[string]int) []int {
	idx := make([]int, len(s.Choices))
	for id, opt := range overrides {
		found := false
		for i, c := range s.Choices {
			if c.ID == id {
				idx[i] = opt
				found = true
				break
			}
		}
		if !found {
			panic("synth: unknown choice " + id)
		}
	}
	return idx
}

// RenderWith renders the reference with the named choice overrides.
func (s *Spec) RenderWith(overrides map[string]int) string {
	return s.RenderIdx(s.IndexWith(overrides))
}

// Lines returns the number of non-blank lines in a rendered submission —
// the L column of Table I averages this.
func Lines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Sample returns up to n deterministic, distinct submission indexes spread
// over the space: index 0 (the reference) plus a coprime stride walk. When
// n >= Size() it returns every index.
func (s *Spec) Sample(n int) []int64 { return s.SampleSeed(n, 0) }

// SampleSeed is Sample with an explicit sample seed: the same (n, seed) pair
// always selects the same indexes, and different seeds start the coprime
// walk from different offsets, so repeated sampled Table I runs can either
// reproduce each other exactly or cover fresh slices of the space. Seed 0 is
// the historical Sample walk. The reference (index 0) is always included.
func (s *Spec) SampleSeed(n int, seed int64) []int64 {
	size := s.Size()
	if int64(n) >= size {
		out := make([]int64, size)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	stride := coprimeStride(size)
	out := make([]int64, 0, n)
	seen := map[int64]bool{}
	k := int64(0)
	if seed != 0 {
		// Mix the seed so adjacent seeds land far apart, then walk from
		// there; the reference is force-included first.
		k = int64(splitmix64(uint64(seed)) % uint64(size))
		seen[0] = true
		out = append(out, 0)
	}
	for len(out) < n {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
		k = (k + stride) % size
	}
	return out
}

// splitmix64 is the SplitMix64 mixing function — a stdlib-only way to turn
// a small seed into a well-spread starting offset.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coprimeStride picks a stride near the golden ratio of the space size that
// is coprime with it, so the walk visits every index before repeating.
func coprimeStride(size int64) int64 {
	if size <= 2 {
		return 1
	}
	stride := int64(float64(size) * 0.6180339887)
	if stride < 1 {
		stride = 1
	}
	for gcd(stride, size) != 1 {
		stride++
	}
	return stride
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
