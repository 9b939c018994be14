package main

import (
	"fmt"

	"repro/internal/enzo"
	"repro/internal/pfs"
)

// field is one named, deterministic output of a run.
type field struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// fingerprint is the ordered list of a run's deterministic outputs: the
// virtual-time results, the byte counters and the file-system request
// counters. Two runs of one problem instance must agree on every field.
type fingerprint []field

// fingerprintOf records res and the file system's whole-run counters.
func fingerprintOf(res *enzo.Result, st pfs.Stats) fingerprint {
	fp := fingerprint{
		{"events", float64(res.Events)},
		{"makespan", res.Makespan},
	}
	for _, ph := range res.Phases {
		fp = append(fp, field{"phase." + ph.Name, ph.Seconds})
	}
	return append(fp,
		field{"bytes_read", float64(res.BytesRead)},
		field{"bytes_written", float64(res.BytesWritten)},
		field{"cas_chunk_puts", float64(res.CASChunkPuts)},
		field{"cas_chunk_hits", float64(res.CASChunkHits)},
		field{"cas_logical_bytes", float64(res.CASLogicalBytes)},
		field{"cas_physical_bytes", float64(res.CASPhysicalBytes)},
		field{"cas_deduped_bytes", float64(res.CASDedupedBytes)},
		field{"cas_failovers", float64(res.CASFailovers)},
		field{"pfs.bytes_read", float64(st.BytesRead)},
		field{"pfs.bytes_written", float64(st.BytesWritten)},
		field{"pfs.read_reqs", float64(st.ReadReqs)},
		field{"pfs.write_reqs", float64(st.WriteReqs)},
		field{"pfs.creates", float64(st.Creates)},
		field{"pfs.opens", float64(st.Opens)},
	)
}

// diff names the first field in which got differs from want, or returns
// "" when the two are identical.
func (want fingerprint) diff(got fingerprint) string {
	for i := range want {
		if i >= len(got) {
			return fmt.Sprintf("%s: missing", want[i].Name)
		}
		if got[i] != want[i] {
			return fmt.Sprintf("%s: got %s=%v, want %s=%v", want[i].Name, got[i].Name, got[i].Value, want[i].Name, want[i].Value)
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("%s: unexpected", got[len(want)].Name)
	}
	return ""
}

// value returns the named field (0 when absent).
func (fp fingerprint) value(name string) float64 {
	for _, f := range fp {
		if f.Name == name {
			return f.Value
		}
	}
	return 0
}
