package core

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
