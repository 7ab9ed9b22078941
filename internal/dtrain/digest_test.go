package dtrain

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"
)

// liveCase is one pinned chaos run: a DP×PP×MB job killed at one
// kill-point class by a cascade of the given depth, its kills drawn from
// seed.
type liveCase struct {
	dp, pp, mb int
	point      KillPoint
	cascade    int
	seed       int64
}

// String names the case in the pinned table's comments.
func (c liveCase) String() string {
	return fmt.Sprintf("%dx%dx%d %s depth %d", c.dp, c.pp, c.mb, c.point, c.cascade)
}

// liveCases lists the pinned runs in table order: every kill point at
// cascade depths 1–3 on 2×2×4 and 3×2×3, seeded from 1 up on the first
// shape and from 25 up on the second.
func liveCases() []liveCase {
	var out []liveCase
	for si, sh := range [][3]int{{2, 2, 4}, {3, 2, 3}} {
		seed := int64(24*si + 1)
		for _, pt := range []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue} {
			for depth := 1; depth <= 3; depth++ {
				out = append(out, liveCase{sh[0], sh[1], sh[2], pt, depth, seed})
				seed++
			}
		}
	}
	return out
}

// liveDigest runs one case through Chaos and hashes what it produced: each
// kill (victims, cut, point, event ID) and the bits of every chaos and
// reference loss — or, when the run fails, the error text.
func liveDigest(c liveCase) uint64 {
	cfg := Config{
		DP: c.dp, PP: c.pp, MB: c.mb,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	res, err := Chaos(cfg, ChaosOptions{Seed: c.seed, Iterations: 4, KillIter: 1, Victims: 1, Point: c.point, Cascade: c.cascade})
	h := fnv.New64a()
	if err != nil {
		io.WriteString(h, err.Error())
		return h.Sum64()
	}
	for _, k := range res.Kills {
		fmt.Fprintf(h, "%v|%d|%s|%s\n", k.Victims, k.Cut, k.Point, k.Event)
	}
	for i := range res.Losses {
		fmt.Fprintf(h, "%#016x %#016x\n", math.Float64bits(res.Losses[i]), math.Float64bits(res.RefLosses[i]))
	}
	return h.Sum64()
}

// liveDigests pins liveDigest of every liveCase, in order.
var liveDigests = []uint64{
	0x062a8c10a5edf142, // 2x2x4 send depth 1
	0x779d238a5d69eadb, // 2x2x4 send depth 2
	0xe0660aad9ad4b9b5, // 2x2x4 send depth 3
	0x660866ae41cc8c0c, // 2x2x4 ops depth 1
	0xb1aa8517b071a0b7, // 2x2x4 ops depth 2
	0xabdb7d747df94385, // 2x2x4 ops depth 3
	0x3c34d80dae8a533d, // 2x2x4 allreduce depth 1
	0xa07cead7641fa96b, // 2x2x4 allreduce depth 2
	0xdf7d9949f2a728fb, // 2x2x4 allreduce depth 3
	0x14a0db0cf618fc5e, // 2x2x4 epilogue depth 1
	0x348dbd29742e7a14, // 2x2x4 epilogue depth 2
	0x48148d40a011802a, // 2x2x4 epilogue depth 3
	0xa1892b38abf54522, // 3x2x3 send depth 1
	0xc4868c50b66370ed, // 3x2x3 send depth 2
	0xed30775826cec3ae, // 3x2x3 send depth 3
	0xfb93a6d738cd21de, // 3x2x3 ops depth 1
	0xfea67d4e2029f9c7, // 3x2x3 ops depth 2
	0x2c15939bb3c047ba, // 3x2x3 ops depth 3
	0xe2f608601cd38dcb, // 3x2x3 allreduce depth 1
	0x512c491cc3cac271, // 3x2x3 allreduce depth 2
	0xeebe179a30b5cc07, // 3x2x3 allreduce depth 3
	0xfd0bf93323f44c20, // 3x2x3 epilogue depth 1
	0x0c1fb85c2f0e850c, // 3x2x3 epilogue depth 2
	0x72e9adb7b38c8e67, // 3x2x3 epilogue depth 3
}

// TestLiveDigestsUnchanged is the bit-identity gate of the live runtime:
// every seeded chaos run — where its kills land and the bits of every loss
// it and its fault-free reference produce — must hash to the pinned
// digest. A change that alters any of them fails here and prints the new
// table; re-pin only when training is meant to change.
func TestLiveDigestsUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("the chaos matrix runs under the race detector elsewhere; this sweep pins bits, not interleavings")
	}
	cases := liveCases()
	got := make([]uint64, len(cases))
	for i, c := range cases {
		got[i] = liveDigest(c)
	}
	mismatch := len(got) != len(liveDigests)
	for i := 0; !mismatch && i < len(got); i++ {
		if got[i] != liveDigests[i] {
			t.Errorf("%v: digest %#016x, pinned %#016x", cases[i], got[i], liveDigests[i])
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for i, d := range got {
			fmt.Fprintf(&b, "\t%#016x, // %v\n", d, cases[i])
		}
		t.Fatalf("%d chaos runs hash differently from the pinned table; at this tree it reads:\n%s", len(cases), b.String())
	}
}
