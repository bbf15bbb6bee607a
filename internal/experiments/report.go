package experiments

import (
	"fmt"
	"strings"

	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// Row is one paper-vs-measured comparison line.
type Row struct {
	Name     string
	Paper    string
	Measured string
	Note     string
}

// Figure is one reproduced plot, rendered as sparklines.
type Figure struct {
	Title string
	Lines []string
	Notes []string
}

// Report is one experiment's full output.
type Report struct {
	ID      string // e.g. "Table I", "Fig 2(b)"
	Title   string
	Rows    []Row
	Figures []Figure
}

// Render formats the report for terminals and EXPERIMENTS.md.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		nameW, paperW, measW := len("metric"), len("paper"), len("measured")
		for _, row := range r.Rows {
			nameW = max(nameW, len(row.Name))
			paperW = max(paperW, len(row.Paper))
			measW = max(measW, len(row.Measured))
		}
		fmt.Fprintf(&b, "| %-*s | %-*s | %-*s | note |\n", nameW, "metric", paperW, "paper", measW, "measured")
		fmt.Fprintf(&b, "|%s|%s|%s|------|\n", dashes(nameW+2), dashes(paperW+2), dashes(measW+2))
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "| %-*s | %-*s | %-*s | %s |\n", nameW, row.Name, paperW, row.Paper, measW, row.Measured, row.Note)
		}
		b.WriteString("\n")
	}
	for _, f := range r.Figures {
		fmt.Fprintf(&b, "```\n%s\n", f.Title)
		for _, l := range f.Lines {
			b.WriteString(l)
			b.WriteString("\n")
		}
		b.WriteString("```\n")
		for _, n := range f.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func dashes(n int) string { return strings.Repeat("-", n) }

// seriesLine renders one series as a labeled sparkline of at most width
// buckets.
func seriesLine(name string, s *metrics.Series, width int) string {
	ds := s
	if s.Len() > width {
		ds = s.Downsample((s.Len() + width - 1) / width)
	}
	return fmt.Sprintf("%-16s |%s| max=%.2f mean=%.2f", name, ds.Spark(), s.Max(), s.Mean())
}

// fmtDur renders a virtual duration compactly.
func fmtDur(d sim.Duration) string {
	if d >= sim.Minute {
		return fmt.Sprintf("%.1f min", d.Seconds()/60)
	}
	return fmt.Sprintf("%.1f s", d.Seconds())
}

// fmtBytes is a shorthand for the metrics formatter.
func fmtBytes(b float64) string { return metrics.FormatBytes(b) }
