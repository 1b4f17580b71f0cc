package server

import (
	"sync"
	"testing"

	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/workload"
)

// fuzzPalette lazily builds the member-batch palette the fuzz input
// indexes into: four structurally distinct generated batches. Built once
// — generation is deterministic, so every fuzz iteration sees the same
// palette and the corpus stays meaningful across runs.
var fuzzPalette = sync.OnceValues(func() ([]*logical.Batch, []string) {
	batches := make([]*logical.Batch, 4)
	fps := make([]string, 4)
	for i := range batches {
		b, err := workload.Generate(workload.Spec{
			Seed: int64(i + 1), Queries: 3, Shape: workload.Mixed,
			FanOut: 3, Sharing: 0.5, SelectFrac: 0.8, AggFrac: 0.5,
		})
		if err != nil {
			panic(err)
		}
		batches[i] = b
		fp, ok := memo.BatchKey(b)
		if !ok {
			panic("palette batch not fingerprintable")
		}
		fps[i] = fp
	}
	return batches, fps
})

// FuzzBatchCoalesce drives coalesceBatches with arbitrary member
// sequences — each input byte picks a palette batch and whether the
// member is fingerprintable — and checks the coalescing invariants the
// attribution split depends on: every member maps to a group serving a
// structurally identical batch, members share a group exactly when their
// nonempty fingerprints match, unfingerprintable members never share,
// and groups appear in first-submitter order holding the first
// submitter's batch.
func FuzzBatchCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 4, 0, 4}) // same batch, alternating unfingerprintable
	f.Add([]byte{3, 2, 1, 0, 3, 2, 1, 0})
	f.Add([]byte{0, 0, 1, 4, 5, 1, 0, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		palette, fps := fuzzPalette()
		if len(data) > 64 {
			data = data[:64]
		}
		members := make([]*batchMember, 0, len(data))
		for _, b := range data {
			m := &batchMember{batch: palette[int(b)&3]}
			if b&4 == 0 {
				m.fp = fps[int(b)&3]
			}
			members = append(members, m)
		}

		groups, memberGroup := coalesceBatches(members)

		if len(memberGroup) != len(members) {
			t.Fatalf("memberGroup has %d entries for %d members", len(memberGroup), len(members))
		}
		if len(groups) > len(members) {
			t.Fatalf("%d groups from %d members", len(groups), len(members))
		}
		first := make([]int, 0, len(groups)) // group -> first member mapped to it
		for i, gi := range memberGroup {
			if gi < 0 || gi >= len(groups) {
				t.Fatalf("member %d maps to group %d, have %d groups", i, gi, len(groups))
			}
			// Groups are numbered in first-appearance order and hold the
			// first submitter's batch verbatim.
			if gi == len(first) {
				first = append(first, i)
				if groups[gi] != members[i].batch {
					t.Fatalf("group %d is not its first submitter's batch (member %d)", gi, i)
				}
			} else if gi > len(first) {
				t.Fatalf("member %d maps to group %d before groups %d..%d appeared", i, gi, len(first), gi-1)
			}
			// The group's batch must be structurally identical to the
			// member's own — the shared sub-run serves its exact queries.
			if members[i].fp != "" {
				gfp, ok := memo.BatchKey(groups[gi])
				if !ok || gfp != members[i].fp {
					t.Fatalf("member %d (fp %q) mapped to group %d with fingerprint %q (ok=%v)",
						i, members[i].fp, gi, gfp, ok)
				}
			} else if groups[gi] != members[i].batch {
				t.Fatalf("unfingerprintable member %d not served its own batch", i)
			}
		}
		if len(first) != len(groups) {
			t.Fatalf("%d groups, %d ever referenced", len(groups), len(first))
		}
		// Sharing is exact: same nonempty fingerprint ⇔ same group, and an
		// unfingerprintable member shares with nobody.
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				same := memberGroup[i] == memberGroup[j]
				coalescible := members[i].fp != "" && members[i].fp == members[j].fp
				if same != coalescible {
					t.Fatalf("members %d (fp %q) and %d (fp %q): shared group = %v, want %v",
						i, members[i].fp, j, members[j].fp, same, coalescible)
				}
			}
		}
	})
}
