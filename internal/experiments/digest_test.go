package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"

	"recycle/internal/config"
)

// figure computes one experiment once per test binary, for every test that
// reads it.
type figure[T any] struct {
	once   sync.Once
	rows   T
	report string
	err    error
}

func (f *figure[T]) get(run func() (T, string, error)) (T, string, error) {
	f.once.Do(func() { f.rows, f.report, f.err = run() })
	return f.rows, f.report, f.err
}

var (
	fig9Out      figure[[]Figure9Result]
	table1Out    figure[[]Table1Row]
	fig10Out     figure[[]Fig10Row]
	fig11Out     figure[[]Fig11Row]
	migrationOut figure[[]MigrationRow]
	stragglerOut figure[[]StragglerRow]
	galleryOut   figure[GallerySlots]
	fig12Out     figure[[]Fig12Row]
)

func figure9Once() ([]Figure9Result, string, error)        { return fig9Out.get(Figure9) }
func table1Once() ([]Table1Row, string, error)             { return table1Out.get(Table1) }
func fig10Once() ([]Fig10Row, string, error)               { return fig10Out.get(Fig10) }
func fig11Once() ([]Fig11Row, string, error)               { return fig11Out.get(Fig11) }
func migrationReportOnce() ([]MigrationRow, string, error) { return migrationOut.get(Migration) }
func stragglerOnce() ([]StragglerRow, string, error)       { return stragglerOut.get(Straggler) }
func fig12Once() ([]Fig12Row, string, error)               { return fig12Out.get(Fig12) }

// galleryOnce is Gallery, which renders no report.
func galleryOnce() (GallerySlots, error) {
	g, _, err := galleryOut.get(func() (GallerySlots, string, error) {
		g, err := Gallery()
		return g, "", err
	})
	return g, err
}

// migrationOnce is the migration comparison of the first Table 1 job, the
// rows TestMigrationMonotoneInFailureFrequency checks: the head of the
// whole report's rows.
func migrationOnce() ([]MigrationRow, string, error) {
	rows, _, err := migrationReportOnce()
	return rows[:min(len(rows), len(config.Table1Frequencies()))], "", err
}

// paperDigests pins an FNV-64a digest of each paper output: its rows —
// Fig 9's with every replayed event — and its rendered report.
var paperDigests = map[string]uint64{
	"fig9":            0x9544ae47cc8f2516,
	"table1":          0xda886cacd21d7563,
	"fig10":           0x84d2f8846e5c97a2,
	"fig11":           0x268aa6a27a71345e,
	"migration":       0x403629f47ffc3dcd,
	"migrationReport": 0x6435819085cf890d,
	"straggler":       0xeb5f7c17ec4213df,
	"gallery":         0x17ff5e61d8ec6576,
	"fig12":           0x93c9d427b0260f2f,
	"table2model":     0x796cea9fc76fc789,
}

// TestPaperOutputsUnchanged is the bit-identity gate of the paper outputs:
// Fig 9, Table 1, Fig 10, Fig 11, the first Table 1 job's migration
// comparison, the whole Migration report, the Straggler study, the
// running example's Gallery, Fig 12 and Table 2's modeled column (its
// measured column reads the wall clock) must hash to the pinned digests. A
// change that alters any of them fails here
// and prints the new table; re-pin only a figure a change is meant to move.
func TestPaperOutputsUnchanged(t *testing.T) {
	digest := func(write func(h io.Writer) error) (uint64, error) {
		h := fnv.New64a()
		err := write(h)
		return h.Sum64(), err
	}
	got := map[string]uint64{}
	for _, fig := range []struct {
		name  string
		slow  bool
		write func(h io.Writer) error
	}{
		{"fig9", false, func(h io.Writer) error {
			rows, report, err := figure9Once()
			for _, r := range rows {
				fmt.Fprintf(h, "%s %v %v %v\n%+v\n", r.Model, r.FaultFree, r.Baselines, r.OOM, *r.Replay)
			}
			io.WriteString(h, report)
			return err
		}},
		{"table1", true, func(h io.Writer) error {
			rows, report, err := table1Once()
			fmt.Fprintf(h, "%+v\n%s", rows, report)
			return err
		}},
		{"fig10", true, func(h io.Writer) error {
			rows, report, err := fig10Once()
			fmt.Fprintf(h, "%+v\n%s", rows, report)
			return err
		}},
		{"fig11", true, func(h io.Writer) error {
			rows, report, err := fig11Once()
			fmt.Fprintf(h, "%+v\n%s", rows, report)
			return err
		}},
		{"migration", true, func(h io.Writer) error {
			rows, _, err := migrationOnce()
			fmt.Fprintf(h, "%+v\n", rows)
			return err
		}},
		{"migrationReport", true, func(h io.Writer) error {
			rows, report, err := migrationReportOnce()
			fmt.Fprintf(h, "%+v\n%s", rows, report)
			return err
		}},
		{"straggler", false, func(h io.Writer) error {
			rows, report, err := stragglerOnce()
			fmt.Fprintf(h, "%+v\n%s", rows, report)
			return err
		}},
		{"gallery", false, func(h io.Writer) error {
			g, err := galleryOnce()
			fmt.Fprintf(h, "%+v\n", g)
			return err
		}},
		{"fig12", false, func(h io.Writer) error {
			rows, report, err := fig12Once()
			fmt.Fprintf(h, "%+v\n%s", rows, report)
			return err
		}},
		{"table2model", false, func(h io.Writer) error {
			rows, _, err := table2Model()
			for _, r := range rows {
				fmt.Fprintf(h, "%s %d %v\n", r.Name, r.Failures, r.PredictedSec)
			}
			return err
		}},
	} {
		if fig.slow && testing.Short() {
			continue
		}
		d, err := digest(fig.write)
		if err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		got[fig.name] = d
		if d != paperDigests[fig.name] {
			t.Errorf("%s: digest %#016x, pinned %#016x", fig.name, d, paperDigests[fig.name])
		}
	}
	if t.Failed() {
		t.Fatalf("the paper outputs hash differently from paperDigests; at this tree they read: %#v", got)
	}
}
