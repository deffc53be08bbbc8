package detect

import (
	"fmt"
	"testing"
)

// SMT variable names are written digit by digit and must stay the strings
// fmt wrote: they order nothing, but witnesses are keyed by them.
func TestVarNameFormat(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {3, 17}, {120, 98765}} {
		if got, want := varName(tc[0], 'v', tc[1]), fmt.Sprintf("i%d.v%d", tc[0], tc[1]); got != want {
			t.Errorf("varName: %q, want %q", got, want)
		}
		if got, want := varName(tc[0], 'a', tc[1]), fmt.Sprintf("i%d.a%d", tc[0], tc[1]); got != want {
			t.Errorf("varName: %q, want %q", got, want)
		}
	}
}
