package experiments

import "io"

// Experiment is one named table or figure: Run renders it to out.
type Experiment struct {
	Name string
	Run  func(seed int64, out io.Writer)
}

// All lists every experiment in the paper-shaped order `experiments -all`
// runs them.
var All = []Experiment{
	{"fig1", func(s int64, w io.Writer) { Fig1(s, w) }},
	{"fig2", func(s int64, w io.Writer) { Fig2(s, w) }},
	{"fig3", func(s int64, w io.Writer) { Fig3(s, w) }},
	{"fig4", func(s int64, w io.Writer) { Fig4(s, w) }},
	{"fig5", func(s int64, w io.Writer) { Fig5(s, w) }},
	{"fig6", func(s int64, w io.Writer) { Fig6(s, w) }},
	{"fig7", func(s int64, w io.Writer) { Fig7(s, w) }},
	{"fig8", func(s int64, w io.Writer) { Fig8(s, w) }},
	{"fig9", func(s int64, w io.Writer) { Fig9(s, w) }},
	{"fig10", func(s int64, w io.Writer) { Fig10(s, w) }},
	{"fig11", func(s int64, w io.Writer) { Fig11(s, w) }},
	{"table1", func(s int64, w io.Writer) { Table1(s, w) }},
	{"tables2and3", func(s int64, w io.Writer) { Tables2And3(s, w) }},
	{"xval", func(s int64, w io.Writer) { XVal(s, w) }},
	{"coverage", func(s int64, w io.Writer) { Coverage(s, w) }},
	{"bgpstream", func(s int64, w io.Writer) { BGPStream(s, w) }},
	{"challenges", func(s int64, w io.Writer) { Challenges(s, w) }},
	{"survey", func(s int64, w io.Writer) { Survey(s, w) }},
	{"ablate-detector", func(s int64, w io.Writer) { AblationDetector(s, w) }},
	{"ablate-unanimity", func(s int64, w io.Writer) { AblationUnanimity(s, w) }},
	{"ablate-cutoff", func(s int64, w io.Writer) { AblationTrafficCutoff(s, w) }},
	{"ablate-exclusive", func(s int64, w io.Writer) { AblationExclusivity(s, w) }},
}

// Lookup returns the experiment called name, and whether there is one.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
