package core

import (
	"fmt"

	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/store"
)

// GraphResident returns the ledger rows of graph g alone (Analysis.Resident):
// its header, its body's tables, its own and its condition builder's.
func GraphResident(g *seg.Graph) Resident {
	var r Resident
	r.addGraph(g)
	r.sum()
	return r
}

// SCCNames renders the condensation of the AST-level call graph the session
// holds after its last Update: the components in bottom-up order, members by
// name.
func (s *Session) SCCNames() [][]string {
	out := make([][]string, len(s.tab.sccs))
	for j, scc := range s.tab.sccs {
		for _, id := range scc {
			out[j] = append(out[j], s.arts[id].fn.Name)
		}
	}
	return out
}

// RekeyUnitFacts rewrites the store's facts record so that the unit called
// name is filed under the digest of src: facts that every checksum vouches
// for, about bytes they were not derived from.
func RekeyUnitFacts(st store.Store, name, src string) error {
	data, ok, err := st.Get(store.NSArtifact, unitFactsKey)
	if err != nil || !ok {
		return fmt.Errorf("no facts record: ok=%v err=%v", ok, err)
	}
	units, err := decodeUnitFacts(data, 1)
	if err != nil {
		return err
	}
	for _, pu := range units {
		if pu.name == name {
			pu.sum = unitDigest(name, src)
		}
	}
	return st.Put(store.NSArtifact, unitFactsKey, encodeUnitFacts(units))
}

// PTAStatsOf returns the points-to counters the named function's committed
// artifact was built with.
func (s *Session) PTAStatsOf(name string) pta.Stats {
	return s.arts[s.tab.lay.ID(name)].sizes.ptaStats()
}

// BeforeStage has f run before each stage of every Update (nil: nothing).
func BeforeStage(f func(stage string)) { beforeStage = f }
