// Package report renders the measurement results as the paper
// presents them: ASCII tables (Table I), proportion charts (Fig 3),
// dependency-layer summaries (§IV.B.1) and DOT graphs (Fig 4, Fig 11).
// Binaries under cmd/ render through these renderers so recorded
// outputs stay consistent.
package report

import (
	"io"
	"strconv"
	"strings"

	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/collect"
	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
)

// Table is a simple column-aligned ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_, _ = t.WriteTo(&sb)
	return sb.String()
}

// Pct formats a percentage with two decimals, as the paper prints.
func Pct(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) + "%" }

// Bar renders a proportion bar of width 30 for quick terminal charts.
func Bar(pct float64) string {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	filled := int(pct * 30 / 100)
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", 30-filled) + "]"
}

// Table1 renders the paper's Table I (post-login exposure).
func Table1(web, mobile collect.ExposureStats) *Table {
	t := &Table{
		Title:   "Table I — private information obtained from online accounts after log-in",
		Headers: []string{"Credential Factors", "Web Account. /%", "Mobile Account. /%"},
	}
	rows := []ecosys.InfoField{
		ecosys.InfoRealName, ecosys.InfoCitizenID, ecosys.InfoCellphone,
		ecosys.InfoEmailAddress, ecosys.InfoAddress, ecosys.InfoUserID,
		ecosys.InfoBindingAccount, ecosys.InfoAcquaintance, ecosys.InfoDeviceType,
	}
	for _, f := range rows {
		t.AddRow(f.String(), Pct(web.Pct(f)), Pct(mobile.Pct(f)))
	}
	return t
}

// Fig3 renders the authentication-process measurement: SMS-only
// account shares per purpose, factor usage and path classes.
func Fig3(web, mobile authproc.Stats) string {
	var b strings.Builder
	b.WriteString("Fig 3 — authentication process measurement\n\n")

	t := &Table{Headers: []string{"metric", "web", "mobile"}}
	t.AddRow("accounts", strconv.Itoa(web.Accounts), strconv.Itoa(mobile.Accounts))
	t.AddRow("auth paths", strconv.Itoa(web.Paths), strconv.Itoa(mobile.Paths))
	t.AddRow("SMS-only sign-in accounts",
		Pct(web.PctAccounts(web.SMSOnlySignIn)), Pct(mobile.PctAccounts(mobile.SMSOnlySignIn)))
	t.AddRow("SMS-only reset accounts",
		Pct(web.PctAccounts(web.SMSOnlyReset)), Pct(mobile.PctAccounts(mobile.SMSOnlyReset)))
	t.AddRow("accounts using SMS anywhere",
		Pct(web.PctAccounts(web.UsesSMSAnywhere)), Pct(mobile.PctAccounts(mobile.UsesSMSAnywhere)))
	for _, c := range []ecosys.PathClass{ecosys.ClassGeneral, ecosys.ClassInfo, ecosys.ClassUnique} {
		t.AddRow(c.String()+" paths",
			Pct(web.PctPaths(web.ClassCounts[c])), Pct(mobile.PctPaths(mobile.ClassCounts[c])))
	}
	b.WriteString(t.String())

	b.WriteString("\nfactor usage (share of paths containing the factor):\n")
	ft := &Table{Headers: []string{"factor", "web", "mobile"}}
	for _, f := range ecosys.AllFactorKinds() {
		wu, mu := web.FactorUsage[f], mobile.FactorUsage[f]
		if wu == 0 && mu == 0 {
			continue
		}
		ft.AddRow(f.String(), Pct(web.PctPaths(wu)), Pct(mobile.PctPaths(mu)))
	}
	b.WriteString(ft.String())
	return b.String()
}

// Layers renders the §IV.B.1 dependency-depth percentages next to the
// paper's published values.
func Layers(web, mobile strategy.DepthStats) *Table {
	t := &Table{
		Title:   "Dependency relationship depth (overlapping, as in §IV.B.1)",
		Headers: []string{"category", "web", "web (paper)", "mobile", "mobile (paper)"},
	}
	t.AddRow("direct (phone+SMS)", Pct(web.Pct(web.Direct)), "74.13%", Pct(mobile.Pct(mobile.Direct)), "75.56%")
	t.AddRow("one middle layer", Pct(web.Pct(web.OneMiddle)), "9.83%", Pct(mobile.Pct(mobile.OneMiddle)), "26.47%")
	t.AddRow("two layers (full capacity)", Pct(web.Pct(web.TwoLayerFull)), "5.20%", Pct(mobile.Pct(mobile.TwoLayerFull)), "20.59%")
	t.AddRow("two layers (with couples)", Pct(web.Pct(web.TwoLayerCouple)), "2.89%", Pct(mobile.Pct(mobile.TwoLayerCouple)), "8.82%")
	t.AddRow("not compromisable", Pct(web.Pct(web.Uncompromisable)), "4.44%", Pct(mobile.Pct(mobile.Uncompromisable)), "2.22%")
	return t
}

// Domains renders the per-domain breakdown (insight 3).
func Domains(stats []core.DomainStats) *Table {
	t := &Table{
		Title:   "Per-domain vulnerability (both platforms)",
		Headers: []string{"domain", "accounts", "fringe", "compromisable", "share"},
	}
	for _, d := range stats {
		share := 0.0
		if d.Accounts > 0 {
			share = 100 * float64(d.Compromisable) / float64(d.Accounts)
		}
		t.AddRow(d.Domain.String(), strconv.Itoa(d.Accounts),
			strconv.Itoa(d.Fringe), strconv.Itoa(d.Compromisable), Pct(share))
	}
	return t
}
