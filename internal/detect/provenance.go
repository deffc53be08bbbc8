package detect

// Per-report provenance: a machine-readable explanation of *why* a warning
// fired. A Provenance records the ordered value-flow hops the demand-driven
// search traversed from source to sink, the size of the Equations 1–3 path
// condition handed to the SMT layer, and which step produced the
// feasibility verdict. Capture is gated behind Options.Witness: with it off
// (the default) nothing here runs and the hot path pays a single branch per
// report.

import "repro/internal/minic"

// VerdictSource identifies which step (see encoder.decide) produced a
// feasibility verdict.
type VerdictSource uint8

const (
	// VerdictUnchecked: path sensitivity was disabled; the candidate was
	// reported without a feasibility check.
	VerdictUnchecked VerdictSource = iota
	// VerdictStructural: the report needed no SMT query at all (a
	// never-freed allocation has no free to reason about).
	VerdictStructural
	// VerdictSolved: the query entered the DPLL(T) loop.
	VerdictSolved
	// VerdictPrefilter: the linear-time semi-decision prefilter refuted
	// the query. Unsat-only, so it never appears on a report.
	VerdictPrefilter
)

var verdictSourceNames = [...]string{
	VerdictUnchecked:  "unchecked",
	VerdictStructural: "structural",
	VerdictSolved:     "solved",
	VerdictPrefilter:  "prefilter",
}

func (v VerdictSource) String() string { return verdictSourceNames[v] }

// Hop is one vertex on the witnessing value-flow path, tagged with the
// context instance (the cloned function invocation) it was traversed in.
type Hop struct {
	// Inst is the context-instance id (0 is the source's own frame; ids
	// increase in discovery order as the search crosses call boundaries).
	Inst int
	// Fn is the function whose SEG the hop's vertex belongs to.
	Fn string
	// Node renders the SEG vertex ("v12" for a value, "p@free#3" for a
	// use).
	Node string
	// Pos locates the vertex's instruction in the source, when it has one
	// (parameters, for example, do not).
	Pos minic.Pos
}

// Provenance explains one report; it is a deterministic function of the
// program and the options.
type Provenance struct {
	// Hops is the ordered list of SEG vertices the search traversed,
	// source first. Empty for reports whose checker does not path-search
	// (never-freed leaks).
	Hops []Hop
	// CondTerms is the number of top-level terms asserted in the path
	// condition (Equations 1–3) for this report's feasibility query; 0
	// when no query ran.
	CondTerms int
	// VerdictSource is the step that produced the verdict.
	VerdictSource VerdictSource
}

// hopsFromSteps renders a candidate's step list. instFn resolves the
// function of instances that carry conditions; instances met only through
// steps fall back to the step's own vertex, exactly like the encoder does.
func hopsFromSteps(steps []gstep, conds []instCond) []Hop {
	instFn := make(map[int]string, len(conds))
	for inst, ic := range conds {
		if ic.fn != nil {
			instFn[inst] = ic.fn.Name
		}
	}
	hops := make([]Hop, 0, len(steps))
	for _, st := range steps {
		in := st.instr()
		if instFn[st.inst] == "" && in >= 0 {
			instFn[st.inst] = st.g.Name()
		}
		h := Hop{Inst: st.inst, Fn: instFn[st.inst], Node: st.g.NodeString(st.node)}
		if in >= 0 {
			h.Pos = st.g.Position(in)
		}
		hops = append(hops, h)
	}
	return hops
}

// JSONProvenance is the exported provenance schema, nested inside
// JSONReport when Options.Witness is on.
type JSONProvenance struct {
	Hops      []JSONHop `json:"hops,omitempty"`
	CondTerms int       `json:"condTerms"`
	// VerdictSource is "unchecked", "structural", "solved" or "prefilter".
	VerdictSource string `json:"verdictSource"`
}

// JSONHop is one exported path hop.
type JSONHop struct {
	Ctx  int    `json:"ctx"`
	Func string `json:"func,omitempty"`
	Node string `json:"node"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

// ToJSON converts a provenance record to the exported schema.
func (p *Provenance) ToJSON() *JSONProvenance {
	if p == nil {
		return nil
	}
	jp := &JSONProvenance{
		CondTerms:     p.CondTerms,
		VerdictSource: p.VerdictSource.String(),
	}
	for _, h := range p.Hops {
		jp.Hops = append(jp.Hops, JSONHop{
			Ctx: h.Inst, Func: h.Fn, Node: h.Node,
			File: h.Pos.File, Line: h.Pos.Line,
		})
	}
	return jp
}
