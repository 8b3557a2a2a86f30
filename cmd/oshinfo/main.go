// Command oshinfo describes the simulated platform: the selected profile's
// derived link numbers, the protocol geometry, and the available profile
// names. With -dump it writes the profile as JSON, the starting point for
// custom calibrations fed back via `reproduce -params`.
//
// Usage:
//
//	oshinfo [-profile gen3x8] [-dump params.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pcie"
)

func main() {
	profile := flag.String("profile", "gen3x8", "platform profile")
	dump := flag.String("dump", "", "write the profile as JSON to this file")
	flag.Parse()

	par, err := model.Profile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oshinfo:", err)
		os.Exit(1)
	}

	fmt.Printf("profile %q (available: %s)\n\n", *profile, strings.Join(model.Names(), ", "))
	fmt.Printf("PCIe link        Gen%d x%d, %.2f GB/s after line encoding,\n",
		par.Gen, par.Lanes, par.WireBandwidth()/1e9)
	fmt.Printf("                 %.2f GB/s payload (MaxPayload %dB, %.1f%% protocol efficiency)\n",
		par.EffectiveWireBW()/1e9, par.MaxPayload, 100*par.ProtocolEfficiency())
	pk, wire := pcie.MemWriteTLPs(par.MaxPayload, par.MaxPayload)
	fmt.Printf("                 one full TLP: %d packet, %d wire bytes\n", pk, wire)
	fmt.Printf("DMA engines      %.2f GB/s base", par.DMAEngineBW/1e9)
	if len(par.ChipsetSpread) > 0 {
		fmt.Printf(", chipset spread")
		for i := range par.ChipsetSpread {
			fmt.Printf(" link%d=%.2f", i, par.LinkEngineBW(i)/1e9)
		}
	}
	fmt.Println(" GB/s")
	fmt.Printf("Root complex     %.2f GB/s per host\n", par.RootComplexBW/1e9)
	fmt.Printf("Latencies        MMIO write %v, read %v, interrupt %v,\n",
		par.MMIOWrite, par.MMIORead, par.InterruptLatency)
	fmt.Printf("                 service wake %v, app wake %v, DMA setup %v\n",
		par.ServiceWake, par.AppWake, par.DMASetup)
	fmt.Printf("Protocol         window %dKB, put chunk %dKB, get chunk %dKB, bypass %dKB\n",
		par.WindowSize>>10, par.PutChunk>>10, par.GetChunk>>10, par.BypassChunk>>10)
	fmt.Printf("Symmetric heap   %dMB chunks up to %dMB per PE, backed in %dKB pages on first write\n",
		par.SymHeapChunk>>20, par.SymHeapMax>>20, mem.PageSize>>10)
	fmt.Printf("Registers        %d scratchpads, %d doorbell bits per link\n\n",
		par.SpadCount, par.DoorbellBits)

	fmt.Println("derived single-link expectations (see EXPERIMENTS.md):")
	fmt.Printf("  raw DMA stream 512KB:    %7.1f MB/s\n", bench.Fig8Independent(par, 0, 512<<10))
	fmt.Printf("  put chunk cycle:         %7.2f us (analytical)\n", bench.Total(bench.PutChunkBreakdown(par)))
	fmt.Printf("  get chunk cycle:         %7.2f us (analytical)\n", bench.Total(bench.GetChunkBreakdown(par)))

	if *dump != "" {
		if err := model.SaveParams(par, *dump); err != nil {
			fmt.Fprintln(os.Stderr, "oshinfo:", err)
			os.Exit(1)
		}
		fmt.Printf("\nprofile written to %s (edit and feed back with `reproduce -params`)\n", *dump)
	}
}
