package expr

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestRegexCacheBounded matches one substituted regex template under 10,000
// distinct bindings, as a stream of submissions with fresh identifiers would.
// The cache must never hold more than regexCacheCap patterns, and every
// answer must equal that of the pattern compiled afresh.
func TestRegexCacheBounded(t *testing.T) {
	const body = `System\.out\.println\(.*\b${d}\b.*\)`
	tmpl := MustCompile([]string{"re:" + body}, []string{"d"})
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("v%d", i)
		rendering := fmt.Sprintf("System.out.println(v%d + 1)", i-i%2) // odd i: another name
		want := regexp.MustCompile(strings.ReplaceAll(body, "${d}", regexp.QuoteMeta(name))).MatchString(rendering)
		if got := tmpl.Match(map[string]string{"d": name}, []string{rendering}); got != want {
			t.Fatalf("binding d=%s over %q: got %v, want %v", name, rendering, got, want)
		}
		regexCache.RLock()
		n := len(regexCache.m)
		regexCache.RUnlock()
		if n > regexCacheCap {
			t.Fatalf("after %d bindings the regex cache holds %d patterns, cap %d", i+1, n, regexCacheCap)
		}
	}
}

// TestPlaceholderFreeRegexCompiledOnce pins that a regex alternative with no
// ${v} placeholder is compiled at Compile time and never reaches the cache.
func TestPlaceholderFreeRegexCompiledOnce(t *testing.T) {
	const body = `^placeholder-free-[0-9]+$`
	tmpl := MustCompile([]string{"re:" + body}, []string{"x"})
	if tmpl.alts[0].re == nil {
		t.Fatal("placeholder-free regex not compiled at Compile time")
	}
	if !tmpl.Match(map[string]string{"x": "i"}, []string{"placeholder-free-42"}) {
		t.Error("placeholder-free regex did not match")
	}
	regexCache.RLock()
	_, cached := regexCache.m[body]
	regexCache.RUnlock()
	if cached {
		t.Error("placeholder-free regex went through the substitution cache")
	}
}
