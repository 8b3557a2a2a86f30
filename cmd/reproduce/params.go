package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
)

// params describes the simulated platform: the selected profile's
// derived link numbers, the protocol geometry, and the available profile
// names. -dump writes the profile as JSON, the starting point for a
// custom calibration fed back with `reproduce -params`.
func params(args []string, stdout, stderr io.Writer) int {
	c := newCLI("params", "The platform profile's derived link numbers and protocol geometry; -dump writes it as JSON for `reproduce -params`.", stdout, stderr, nil)
	c.profileFlag()
	dump := c.String("dump", "", "also write the profile as JSON to this file")
	if code, ok := c.parse(args); !ok {
		return code
	}
	par, w := c.par, stdout

	fmt.Fprintf(w, "profile %q (available: %s)\n\n", *c.profile, strings.Join(model.Names(), ", "))
	fmt.Fprintf(w, "PCIe link        Gen%d x%d, %.2f GB/s after line encoding,\n",
		par.Gen, par.Lanes, par.WireBandwidth()/1e9)
	fmt.Fprintf(w, "                 %.2f GB/s payload (MaxPayload %dB, %.1f%% protocol efficiency)\n",
		par.EffectiveWireBW()/1e9, par.MaxPayload, 100*par.ProtocolEfficiency())
	pk, wire := pcie.MemWriteTLPs(par.MaxPayload, par.MaxPayload)
	fmt.Fprintf(w, "                 one full TLP: %d packet, %d wire bytes\n", pk, wire)
	fmt.Fprintf(w, "DMA engines      %.2f GB/s base", par.DMAEngineBW/1e9)
	if len(par.ChipsetSpread) > 0 {
		fmt.Fprintf(w, ", chipset spread")
		for i := range par.ChipsetSpread {
			fmt.Fprintf(w, " link%d=%.2f", i, par.LinkEngineBW(i)/1e9)
		}
	}
	fmt.Fprintln(w, " GB/s")
	fmt.Fprintf(w, "Root complex     %.2f GB/s per host\n", par.RootComplexBW/1e9)
	fmt.Fprintf(w, "Latencies        MMIO write %v, read %v, interrupt %v,\n",
		par.MMIOWrite, par.MMIORead, par.InterruptLatency)
	fmt.Fprintf(w, "                 service wake %v, app wake %v, DMA setup %v\n",
		par.ServiceWake, par.AppWake, par.DMASetup)
	fmt.Fprintf(w, "Protocol         window %dKB, put chunk %dKB, get chunk %dKB, bypass %dKB\n",
		par.WindowSize>>10, par.PutChunk>>10, par.GetChunk>>10, par.BypassChunk>>10)
	fmt.Fprintf(w, "Symmetric heap   %dMB chunks up to %dMB per PE, backed in %dKB pages on first write\n",
		par.SymHeapChunk>>20, par.SymHeapMax>>20, mem.PageSize>>10)
	fmt.Fprintf(w, "Registers        %d scratchpads, %d doorbell bits per link\n\n",
		par.SpadCount, par.DoorbellBits)

	fmt.Fprintln(w, "derived single-link expectations (see EXPERIMENTS.md):")
	fmt.Fprintf(w, "  raw DMA stream 512KB:    %7.1f MB/s\n", bench.Fig8Independent(par, 0, 512<<10))
	fmt.Fprintf(w, "  put chunk cycle:         %7.2f us (analytical)\n", bench.Total(bench.PutChunkBreakdown(par)))
	fmt.Fprintf(w, "  get chunk cycle:         %7.2f us (analytical)\n", bench.Total(bench.GetChunkBreakdown(par)))

	if *dump != "" {
		if err := model.SaveParams(par, *dump); err != nil {
			return c.fail(1, err)
		}
		fmt.Fprintf(w, "\nprofile written to %s (edit and feed back with `reproduce -params`)\n", *dump)
	}
	return 0
}
