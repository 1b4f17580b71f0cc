//go:build cellcheck

package physical

import (
	"fmt"

	"repro/internal/memo"
)

const cellCheck = true

// checkCell panics unless cell is the index's cell of (g, ord): a pair the
// closure missed, or a template that carries another pair's cell. The miss
// paths and plan extraction call it — every pair an evaluation reaches is
// first reached through one of them.
func (s *space) checkCell(g memo.GroupID, ord ordID, cell int) {
	if want, ok := s.cells.cell(g, ord); !ok || want != cell {
		panic(fmt.Sprintf("physical: (group %d, order %d) priced at cell %d; the index says %d (in the closure: %t)", g, ord, cell, want, ok))
	}
}
