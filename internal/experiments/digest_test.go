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
)

func figure9Once() ([]Figure9Result, string, error)        { return fig9Out.get(Figure9) }
func table1Once() ([]Table1Row, string, error)             { return table1Out.get(Table1) }
func fig10Once() ([]Fig10Row, string, error)               { return fig10Out.get(Fig10) }
func fig11Once() ([]Fig11Row, string, error)               { return fig11Out.get(Fig11) }
func migrationReportOnce() ([]MigrationRow, string, error) { return migrationOut.get(Migration) }

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
}

// TestPaperOutputsUnchanged is the bit-identity gate of the paper outputs:
// Fig 9, Table 1, Fig 10, Fig 11, the first Table 1 job's migration
// comparison and the whole Migration report must
// hash to the pinned digests. A change that alters any of them fails here
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
