//go:build !cellcheck

package physical

import "repro/internal/memo"

// cellCheck is off in ordinary builds: the oracle trusts the cells its
// templates carry, that every cached cost is pure, that a use-cost key
// exists only for a group in the set, that a key the evaluation in flight
// re-prices for itself alone stays out of the caches, that a store never
// claims a live position, that the bucket replacing a cell's full head holds
// the head whole and that a searcher's flags never change, and the checks below compile to nothing. Building
// with -tags cellcheck (CI runs this package's tests that way too) turns
// them on.
const cellCheck = false

func (s *space) checkCell(memo.GroupID, ordID, int) {}

func (*worker) checkUseKey(int) {}

func (*worker) checkOverlayKey(int) {}

func checkPure(uint64, float64, float64) {}

func checkUnclaimed(uint64, int) {}

func checkGrown(*l1Small, *l1Bucket) {}

// flagCheck is empty in ordinary builds; the cellcheck build records in it
// the operator flags the searcher's first evaluation found.
type flagCheck struct{}

func (*flagCheck) flags(bool, bool) {}
