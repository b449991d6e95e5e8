// Package export renders measurement output as the machine-readable
// datasets the paper's public site (rovista.netsecurelab.org) publishes:
// per-AS score tables in JSON and CSV. Downstream consumers (dashboards,
// notebooks) read these instead of Go structs.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/netsec-lab/rovista/internal/core"
)

// ScoreRecord is one published per-AS result.
type ScoreRecord struct {
	ASN            uint32  `json:"asn"`
	Score          float64 `json:"rov_protection_score"`
	VVPs           int     `json:"vvps"`
	TNodesMeasured int     `json:"tnodes_measured"`
	TNodesFiltered int     `json:"tnodes_filtered"`
	Unanimous      bool    `json:"unanimous"`
}

// FormatVersion is the current schema version of exported JSON datasets.
// It is bumped whenever a field changes meaning or shape, so downstream
// consumers can refuse data newer than they understand. Version history:
//
//	0 — legacy, pre-versioned datasets (accepted on read)
//	1 — format_version field added; otherwise identical to 0
const FormatVersion = 1

// Dataset is one measurement round's published dataset.
type Dataset struct {
	Format      int           `json:"format_version"`
	Day         int           `json:"day"`
	TNodes      int           `json:"tnodes"`
	Consistency float64       `json:"consistency"`
	Records     []ScoreRecord `json:"records"`
}

// FromSnapshot converts a snapshot into a publishable dataset with records
// ordered by descending score then ascending ASN.
func FromSnapshot(snap *core.Snapshot) *Dataset {
	d := &Dataset{
		Format:      FormatVersion,
		Day:         snap.Day,
		TNodes:      len(snap.TNodes),
		Consistency: snap.ConsistentPairFraction,
	}
	for asn, rep := range snap.Reports {
		d.Records = append(d.Records, ScoreRecord{
			ASN:            uint32(asn),
			Score:          rep.Score,
			VVPs:           rep.VVPs,
			TNodesMeasured: rep.TNodesMeasured,
			TNodesFiltered: rep.TNodesFiltered,
			Unanimous:      rep.Unanimous,
		})
	}
	d.Sort()
	return d
}

// Sort orders the records canonically: descending score, then ascending
// ASN. Every producer of a Dataset (FromSnapshot, the rovistad export
// endpoint) applies the same order so byte-level diffs stay meaningful.
func (d *Dataset) Sort() {
	sort.Slice(d.Records, func(i, j int) bool {
		if d.Records[i].Score != d.Records[j].Score {
			return d.Records[i].Score > d.Records[j].Score
		}
		return d.Records[i].ASN < d.Records[j].ASN
	})
}

// WriteJSON emits the dataset as indented JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadJSON parses a dataset produced by WriteJSON.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("export: decoding dataset: %w", err)
	}
	if d.Format > FormatVersion {
		return nil, fmt.Errorf("export: dataset format_version %d is newer than supported version %d", d.Format, FormatVersion)
	}
	if d.TNodes < 0 {
		return nil, fmt.Errorf("export: negative tnodes %d", d.TNodes)
	}
	for i, rec := range d.Records {
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("export: record %d: %w", i, err)
		}
	}
	return &d, nil
}

// check rejects a record no writer produces: a score that is not a number
// in [0, 100] (NaN and ±Inf included, which WriteJSON cannot encode) or a
// negative count.
func (r ScoreRecord) check() error {
	if !(r.Score >= 0 && r.Score <= 100) {
		return fmt.Errorf("score %v outside [0, 100]", r.Score)
	}
	if r.VVPs < 0 || r.TNodesMeasured < 0 || r.TNodesFiltered < 0 {
		return fmt.Errorf("negative count (vvps %d, tnodes_measured %d, tnodes_filtered %d)", r.VVPs, r.TNodesMeasured, r.TNodesFiltered)
	}
	return nil
}

// csvHeader is the column layout of the CSV rendering.
var csvHeader = []string{"asn", "rov_protection_score", "vvps", "tnodes_measured", "tnodes_filtered", "unanimous"}

// WriteCSV emits the dataset's records as CSV with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range d.Records {
		row := []string{
			strconv.FormatUint(uint64(r.ASN), 10),
			strconv.FormatFloat(r.Score, 'f', 2, 64),
			strconv.Itoa(r.VVPs),
			strconv.Itoa(r.TNodesMeasured),
			strconv.Itoa(r.TNodesFiltered),
			strconv.FormatBool(r.Unanimous),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV produced by WriteCSV back into records.
func ReadCSV(r io.Reader) ([]ScoreRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("export: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("export: empty csv")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != csvHeader[0] {
		return nil, fmt.Errorf("export: unexpected header %v", rows[0])
	}
	out := make([]ScoreRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		asn, err1 := strconv.ParseUint(row[0], 10, 32)
		score, err2 := strconv.ParseFloat(row[1], 64)
		vvps, err3 := strconv.Atoi(row[2])
		tm, err4 := strconv.Atoi(row[3])
		tf, err5 := strconv.Atoi(row[4])
		un, err6 := strconv.ParseBool(row[5])
		for _, e := range []error{err1, err2, err3, err4, err5, err6} {
			if e != nil {
				return nil, fmt.Errorf("export: row %d: %w", i+2, e)
			}
		}
		rec := ScoreRecord{
			ASN: uint32(asn), Score: score, VVPs: vvps,
			TNodesMeasured: tm, TNodesFiltered: tf, Unanimous: un,
		}
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("export: row %d: %w", i+2, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
