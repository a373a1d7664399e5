package harness

import (
	"fmt"

	"dualtable/internal/sim"
	"dualtable/internal/workload"
)

// Probe prints sizing diagnostics used to calibrate the simulation
// constants (invoked by cmd/dtbench -probe).
func Probe(cfg Config) {
	cfg = cfg.normalized()
	g := gridCfg(cfg)
	fmt.Printf("grid gen scale: %v (DataScale %v)\n", g.Scale, 1/g.Scale)
	e, err := newGridEnv(cfg, "DUALTABLE", workload.GridTablesII()[4:5])
	if err != nil {
		fmt.Println("probe:", err)
		return
	}
	desc, _ := e.db.Engine.MS.Get("tj_gbsjwzl_mx")
	h, _ := e.db.Engine.Handler(desc.Storage)
	rows, _ := h.RowCount(desc)
	bytes, _ := h.DataSize(desc)
	p := sim.GridCluster()
	fmt.Printf("mx: rows=%d bytes=%d d=%.1fB/row scaledBytes=%.2fGB scaledRows=%.0fM\n",
		rows, bytes, float64(bytes)/float64(rows),
		float64(bytes)/g.Scale/1e9, float64(rows)/g.Scale/1e6)
	fmt.Printf("grid slots=%d perSlotRead=%.1fMB/s perSlotWrite=%.1fMB/s\n", p.MapSlots(),
		1e-6/p.TaskSeconds(sim.Counts{sim.DFSReadBytes: 1}), 1e-6/p.TaskSeconds(sim.Counts{sim.DFSWriteBytes: 1}))

	t := tpchCfg(cfg)
	te, err := newTPCHEnv(cfg, "DUALTABLE")
	if err != nil {
		fmt.Println("probe:", err)
		return
	}
	ldesc, _ := te.db.Engine.MS.Get("lineitem")
	lh, _ := te.db.Engine.Handler(ldesc.Storage)
	lrows, _ := lh.RowCount(ldesc)
	lbytes, _ := lh.DataSize(ldesc)
	ts := float64(t.LineitemRows) / 180e6
	fmt.Printf("lineitem: rows=%d bytes=%d d=%.1fB/row scaledBytes=%.2fGB scaledRows=%.0fM\n",
		lrows, lbytes, float64(lbytes)/float64(lrows),
		float64(lbytes)/ts/1e9, float64(lrows)/ts/1e6)
}
