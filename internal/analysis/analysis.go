// Package analysis is a pluggable static-analysis framework over the EPDGs
// built by internal/pdg, in the style of golang.org/x/tools/go/analysis:
// each Analyzer inspects one method's graph through a Pass that memoizes
// shared dataflow facts (control-flow graph, dominators, reaching
// definitions), a Registry names the available analyzers, and a Driver runs
// an enabled subset over every method of a submission.
//
// Unlike the paper's pattern matcher, which only recognizes code the
// instructor anticipated, these analyzers report defects no knowledge-base
// entry describes: uses of unassigned variables, dead stores, unreachable
// statements, constant conditions, loops that cannot make progress, and
// paths that fall off a value-returning method.
package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"semfeed/internal/obs"
	"semfeed/internal/pdg"
)

// Severity classifies how strongly a diagnostic predicts broken behavior.
type Severity int

// Severities, ordered by increasing gravity.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{"info", "warning", "error"}

// String returns the lowercase severity name.
func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return fmt.Sprintf("Severity(%d)", int(s))
	}
	return severityNames[s]
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	for i, n := range severityNames {
		if string(b) == `"`+n+`"` {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("analysis: unknown severity %s", b)
}

// Diagnostic is one finding: an analyzer, the method and graph node it
// anchors to, and a human-readable message.
type Diagnostic struct {
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Method   string   `json:"method"`
	Line     int      `json:"line"`
	NodeID   int      `json:"node_id"`
	Message  string   `json:"message"`
}

// String renders the diagnostic in the javalint line format (without the
// file prefix): "line: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d: [%s] %s", d.Line, d.Analyzer, d.Message)
}

// Analyzer is one check. Run inspects a single method's EPDG via the Pass
// and returns its findings; the driver fills in the Analyzer, Severity and
// Method fields of every returned Diagnostic.
type Analyzer struct {
	Name     string
	Doc      string
	Severity Severity
	Run      func(*Pass) []Diagnostic
}

// Pass carries one method's graph plus lazily computed, memoized dataflow
// facts shared by every analyzer in the run.
type Pass struct {
	Method string
	Graph  *pdg.Graph

	cfg       *CFG
	reachable []bool
	idom      []int
	reach     *ReachingDefs
	allDefs   map[string][]int
}

// NewPass wraps a method's graph for analysis.
func NewPass(method string, g *pdg.Graph) *Pass {
	return &Pass{Method: method, Graph: g}
}

// CFG returns the reconstructed control-flow graph, computing it on first
// use.
func (p *Pass) CFG() *CFG {
	if p.cfg == nil {
		p.cfg = BuildCFG(p.Graph)
	}
	return p.cfg
}

// Reachable reports per-node control reachability from method entry.
func (p *Pass) Reachable() []bool {
	if p.reachable == nil {
		p.reachable = p.CFG().Reachable()
	}
	return p.reachable
}

// Idoms returns the immediate-dominator array of the CFG.
func (p *Pass) Idoms() []int {
	if p.idom == nil {
		p.idom = Idoms(p.CFG())
	}
	return p.idom
}

// Dominates reports whether CFG node a dominates node b.
func (p *Pass) Dominates(a, b int) bool {
	idom := p.Idoms()
	if idom[b] == -1 {
		return false
	}
	for {
		if b == a {
			return true
		}
		if b == p.CFG().Entry {
			return false
		}
		b = idom[b]
	}
}

// ReachingDefs returns the reaching-definitions solution over the CFG.
func (p *Pass) ReachingDefs() *ReachingDefs {
	if p.reach == nil {
		p.reach = ComputeReachingDefs(p.CFG())
	}
	return p.reach
}

// Defs returns every node defining variable v anywhere in the graph.
func (p *Pass) Defs(v string) []int {
	if p.allDefs == nil {
		p.allDefs = map[string][]int{}
		for _, n := range p.Graph.Nodes {
			for _, d := range n.Defs {
				p.allDefs[d] = append(p.allDefs[d], n.ID)
			}
		}
	}
	return p.allDefs[v]
}

// Declared reports whether v is introduced inside the method (parameter,
// local declaration or for-each header). Variables defined but never
// declared are class fields, whose values outlive the method.
func (p *Pass) Declared(v string) bool {
	for _, id := range p.Defs(v) {
		n := p.Graph.Node(id)
		if n.Type == pdg.Decl || n.Declares {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Registry

// Registry names a set of analyzers and builds drivers over subsets of them.
type Registry struct {
	byName map[string]*Analyzer
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Analyzer{}}
}

// Register adds an analyzer; names must be unique and non-empty.
func (r *Registry) Register(a *Analyzer) error {
	if a == nil || a.Name == "" {
		return fmt.Errorf("analysis: analyzer must have a name")
	}
	if a.Run == nil {
		return fmt.Errorf("analysis: analyzer %s has no Run function", a.Name)
	}
	if _, dup := r.byName[a.Name]; dup {
		return fmt.Errorf("analysis: analyzer %s registered twice", a.Name)
	}
	r.byName[a.Name] = a
	r.order = append(r.order, a.Name)
	return nil
}

// MustRegister is Register, panicking on error (for init-time registration).
func (r *Registry) MustRegister(as ...*Analyzer) {
	for _, a := range as {
		if err := r.Register(a); err != nil {
			panic(err)
		}
	}
}

// Get returns the named analyzer, or nil.
func (r *Registry) Get(name string) *Analyzer { return r.byName[name] }

// Names lists the registered analyzer names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// Driver builds a driver over a subset of the registry. A nil or empty
// enable list selects every analyzer; disable then removes names. Unknown
// names in either list are an error.
func (r *Registry) Driver(enable, disable []string) (*Driver, error) {
	selected := map[string]bool{}
	if len(enable) == 0 {
		for _, n := range r.order {
			selected[n] = true
		}
	} else {
		for _, n := range enable {
			if r.byName[n] == nil {
				return nil, fmt.Errorf("analysis: unknown analyzer %q (have %v)", n, r.order)
			}
			selected[n] = true
		}
	}
	for _, n := range disable {
		if r.byName[n] == nil {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (have %v)", n, r.order)
		}
		delete(selected, n)
	}
	d := &Driver{}
	for _, n := range r.order {
		if selected[n] {
			d.analyzers = append(d.analyzers, r.byName[n])
		}
	}
	return d, nil
}

// defaultRegistry holds the built-in analyzer suite.
var defaultRegistry = NewRegistry()

// Default returns the registry of built-in analyzers.
func Default() *Registry { return defaultRegistry }

// DefaultDriver returns a driver running every built-in analyzer.
func DefaultDriver() *Driver {
	d, err := defaultRegistry.Driver(nil, nil)
	if err != nil {
		panic(err) // unreachable: nil enable/disable cannot name unknowns
	}
	return d
}

// ParseDriver resolves an analyzer selection, the -analyzers value of the
// feedback and semfeedd commands: "all" runs every built-in analyzer, "none"
// (or "") runs none and yields a nil driver, and a comma-separated list runs
// exactly the named analyzers.
func ParseDriver(sel string) (*Driver, error) {
	switch sel {
	case "all":
		return DefaultDriver(), nil
	case "none", "":
		return nil, nil
	}
	return defaultRegistry.Driver(strings.Split(sel, ","), nil)
}

// ---------------------------------------------------------------------------
// Driver

// Driver runs a fixed analyzer set over method graphs.
type Driver struct {
	analyzers []*Analyzer
}

// NewDriver builds a driver over an explicit analyzer list. With no
// arguments the driver is empty: it runs nothing and reports nothing, which
// is how a KB assignment opts out of analysis entirely.
func NewDriver(as ...*Analyzer) *Driver { return &Driver{analyzers: as} }

// Names lists the driver's analyzer names in registration order.
func (d *Driver) Names() []string {
	out := make([]string, len(d.analyzers))
	for i, a := range d.analyzers {
		out[i] = a.Name
	}
	return out
}

// RunGraph runs every analyzer over one method's graph. Facts are computed
// once and shared across analyzers via the Pass.
func (d *Driver) RunGraph(method string, g *pdg.Graph) []Diagnostic {
	pass := NewPass(method, g)
	var out []Diagnostic
	for _, a := range d.analyzers {
		for _, diag := range a.Run(pass) {
			diag.Analyzer = a.Name
			diag.Severity = a.Severity
			diag.Method = method
			out = append(out, diag)
		}
	}
	return out
}

// Run analyzes every method graph of a submission and returns all findings
// sorted by line, analyzer, method and message.
func (d *Driver) Run(graphs map[string]*pdg.Graph) []Diagnostic {
	if len(d.analyzers) == 0 || len(graphs) == 0 {
		return nil
	}
	start := time.Now()
	methods := make([]string, 0, len(graphs))
	for m := range graphs {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	var out []Diagnostic
	for _, m := range methods {
		out = append(out, d.RunGraph(m, graphs[m])...)
		obs.AnalysisGraphsTotal.Inc()
	}
	SortDiagnostics(out)
	obs.AnalysisRunsTotal.Inc()
	obs.AnalysisDiagnosticsTotal.Add(int64(len(out)))
	obs.AnalysisSeconds.Observe(time.Since(start).Seconds())
	return out
}

// SortDiagnostics orders findings by line, then analyzer, method, message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Message < b.Message
	})
}

// Counts tallies diagnostics per analyzer name (for Report.Stats).
func Counts(ds []Diagnostic) map[string]int {
	if len(ds) == 0 {
		return nil
	}
	out := map[string]int{}
	for _, d := range ds {
		out[d.Analyzer]++
	}
	return out
}
