//go:build !cellcheck

package physical

import "repro/internal/memo"

// cellCheck is off in ordinary builds: the oracle trusts the cells its
// templates carry, that every cached cost is pure and that a use-cost key
// exists only for a group in the set, and the checks below compile to
// nothing. Building with -tags cellcheck (CI runs this package's
// tests that way too) turns them on.
const cellCheck = false

func (s *space) checkCell(memo.GroupID, ordID, int) {}

func (*worker) checkUseKey(int) {}

func (*space) checkUseBucket(int) {}

func checkPure(uint64, float64, float64) {}

func checkUnclaimed(*l1Bucket, int) {}

// batchCheck is empty in ordinary builds; the cellcheck build counts in it
// the workers of a batch that are running.
type batchCheck struct{}

func (*batchCheck) enter() {}
func (*batchCheck) leave() {}
func (*batchCheck) alone() {}
