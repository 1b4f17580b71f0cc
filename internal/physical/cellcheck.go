//go:build !cellcheck

package physical

import "repro/internal/memo"

// cellCheck is off in ordinary builds: the oracle trusts the cells its
// templates carry, and the checks below compile to nothing. Building with
// -tags cellcheck (CI runs this package's tests that way too) turns them on.
const cellCheck = false

func (s *space) checkCell(memo.GroupID, ordID, int) {}
