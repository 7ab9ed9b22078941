package dtrain

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"
)

// liveCase is one pinned chaos run: a DP×PP×MB job under AdamW or SGD,
// killed at one kill-point class by a cascade of the given depth.
type liveCase struct {
	dp, pp, mb int
	sgd        bool
	point      KillPoint
	cascade    int
}

// String names the case in the pinned table's comments.
func (c liveCase) String() string {
	opt := "adamw"
	if c.sgd {
		opt = "sgd"
	}
	return fmt.Sprintf("%dx%dx%d %s %s depth %d", c.dp, c.pp, c.mb, opt, c.point, c.cascade)
}

// liveCases lists the pinned runs in table order: every kill point at
// cascade depths 1–3, under AdamW and SGD, on 2×2×4 and 3×2×3.
func liveCases() []liveCase {
	var out []liveCase
	for _, sh := range [][3]int{{2, 2, 4}, {3, 2, 3}} {
		for _, sgd := range []bool{false, true} {
			for _, pt := range []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue} {
				for depth := 1; depth <= 3; depth++ {
					out = append(out, liveCase{sh[0], sh[1], sh[2], sgd, pt, depth})
				}
			}
		}
	}
	return out
}

// liveDigest runs one case through Chaos and hashes what it produced: each
// kill (victims, cut, point, event ID) and the bits of every chaos and
// reference loss — or, when the run fails, the error text.
func liveDigest(c liveCase, seed int64) uint64 {
	cfg := Config{
		DP: c.dp, PP: c.pp, MB: c.mb,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2, UseSGD: c.sgd,
	}
	res, err := Chaos(cfg, ChaosOptions{Seed: seed, Iterations: 4, KillIter: 1, Victims: 1, Point: c.point, Cascade: c.cascade})
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

// liveDigests pins liveDigest of every liveCase, in order, seeded by its
// position.
var liveDigests = []uint64{
	0x062a8c10a5edf142, // 2x2x4 adamw send depth 1
	0x779d238a5d69eadb, // 2x2x4 adamw send depth 2
	0xe0660aad9ad4b9b5, // 2x2x4 adamw send depth 3
	0x660866ae41cc8c0c, // 2x2x4 adamw ops depth 1
	0xb1aa8517b071a0b7, // 2x2x4 adamw ops depth 2
	0xabdb7d747df94385, // 2x2x4 adamw ops depth 3
	0x3c34d80dae8a533d, // 2x2x4 adamw allreduce depth 1
	0xa07cead7641fa96b, // 2x2x4 adamw allreduce depth 2
	0xdf7d9949f2a728fb, // 2x2x4 adamw allreduce depth 3
	0x14a0db0cf618fc5e, // 2x2x4 adamw epilogue depth 1
	0x348dbd29742e7a14, // 2x2x4 adamw epilogue depth 2
	0x48148d40a011802a, // 2x2x4 adamw epilogue depth 3
	0xe2017144a3ad43a6, // 2x2x4 sgd send depth 1
	0xaf3cbc8f0664ca4b, // 2x2x4 sgd send depth 2
	0xb58c40bc5751af0f, // 2x2x4 sgd send depth 3
	0xc84668949b9e72ce, // 2x2x4 sgd ops depth 1
	0x0d98b291043255d9, // 2x2x4 sgd ops depth 2
	0x5486f91be0d2d211, // 2x2x4 sgd ops depth 3
	0xbfe03d03c2465fad, // 2x2x4 sgd allreduce depth 1
	0xc1fd89fc5b9f84c7, // 2x2x4 sgd allreduce depth 2
	0xc5943a087532c537, // 2x2x4 sgd allreduce depth 3
	0xb2c8b80171651a6e, // 2x2x4 sgd epilogue depth 1
	0x61a4a1402deb7482, // 2x2x4 sgd epilogue depth 2
	0x3aaee5b35fa31b8c, // 2x2x4 sgd epilogue depth 3
	0xa1892b38abf54522, // 3x2x3 adamw send depth 1
	0xc4868c50b66370ed, // 3x2x3 adamw send depth 2
	0xed30775826cec3ae, // 3x2x3 adamw send depth 3
	0xfb93a6d738cd21de, // 3x2x3 adamw ops depth 1
	0xfea67d4e2029f9c7, // 3x2x3 adamw ops depth 2
	0x2c15939bb3c047ba, // 3x2x3 adamw ops depth 3
	0xe2f608601cd38dcb, // 3x2x3 adamw allreduce depth 1
	0x512c491cc3cac271, // 3x2x3 adamw allreduce depth 2
	0xeebe179a30b5cc07, // 3x2x3 adamw allreduce depth 3
	0xfd0bf93323f44c20, // 3x2x3 adamw epilogue depth 1
	0x0c1fb85c2f0e850c, // 3x2x3 adamw epilogue depth 2
	0x72e9adb7b38c8e67, // 3x2x3 adamw epilogue depth 3
	0x2c51638bbb7f7b4e, // 3x2x3 sgd send depth 1
	0xd23d4e50ec79fe47, // 3x2x3 sgd send depth 2
	0x6a23c35382483196, // 3x2x3 sgd send depth 3
	0x15d23e7a299abfac, // 3x2x3 sgd ops depth 1
	0x5ae1758a780effa9, // 3x2x3 sgd ops depth 2
	0xb7b0663751f343b8, // 3x2x3 sgd ops depth 3
	0x67f046e60836b047, // 3x2x3 sgd allreduce depth 1
	0x724259d5495bfe55, // 3x2x3 sgd allreduce depth 2
	0x0fc8f06ead78b477, // 3x2x3 sgd allreduce depth 3
	0xfa0b2e64906c1304, // 3x2x3 sgd epilogue depth 1
	0xf2b7e9bc984ac1e6, // 3x2x3 sgd epilogue depth 2
	0xd5d87316c2f04df2, // 3x2x3 sgd epilogue depth 3
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
		got[i] = liveDigest(c, int64(i+1))
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
