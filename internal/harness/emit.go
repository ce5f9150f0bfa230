package harness

import (
	"fmt"
	"strings"
)

// CSVHeader is the column layout of CSV.
const CSVHeader = "class,n,m,workload,engine,param,repeats,converged,rounds_mean,rounds_stderr,moves_mean,moves_stderr,value_mean,value_stderr"

// CSV renders cell summaries as CSV, one row per cell in order. Floats
// use %g (shortest round-trip), so equal summaries render to identical
// bytes.
func CSV(sums []CellSummary) string {
	var b strings.Builder
	b.WriteString(CSVHeader)
	b.WriteByte('\n')
	for _, s := range sums {
		fmt.Fprintf(&b, "%s,%d,%d,%s,%s,%s,%d,%d,%g,%g,%g,%g,%g,%g\n",
			s.Class, s.N, s.M, s.Workload, s.Engine, s.Param,
			s.Repeats, s.Converged,
			s.RoundsMean, s.RoundsStdErr, s.MovesMean, s.MovesStdErr,
			s.ValueMean, s.ValueStdErr)
	}
	return b.String()
}
