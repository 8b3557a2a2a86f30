package bench

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/fabric"
)

func TestSharedFlags(t *testing.T) {
	defer SetFabric(fabric.KindNTBRing)
	defer SetParallelism(0)
	for _, tc := range []struct {
		name    string
		spec    FlagSpec
		args    []string
		wantErr string // substring; "" means success
		kinds   []fabric.Kind
	}{
		{"defaults", FlagSpec{Fabric: "ntb-ring", Select: true}, nil, "", []fabric.Kind{fabric.KindNTBRing}},
		{"alias+workers", FlagSpec{Fabric: "ntb-ring", Select: true}, []string{"-fabric", "switch", "-j", "3"}, "", []fabric.Kind{fabric.KindPCIeSwitch}},
		{"unknown kind", FlagSpec{Fabric: "ntb-ring"}, []string{"-fabric", "token-ring"}, "-fabric: fabric: unknown fabric kind", nil},
		{"one backend only", FlagSpec{Fabric: "ntb-ring"}, []string{"-fabric", "ntb-ring,cxl"}, "-fabric:", nil},
		{"pair rejected", FlagSpec{Fabric: "ntb-ring", PairNeeds: "Fig 9 sweeps a 3-host world"}, []string{"-fabric", "pair"},
			"-fabric=ntb-pair: Fig 9 sweeps a 3-host world; the pair fabric joins exactly 2", nil},
		{"list", FlagSpec{Fabric: "ntb-ring,cxl", FabricList: true}, []string{"-fabric", "ntb-ring, pcie-switch,cxl"}, "",
			[]fabric.Kind{fabric.KindNTBRing, fabric.KindPCIeSwitch, fabric.KindCXL}},
		{"empty list", FlagSpec{Fabric: "ntb-ring", FabricList: true}, []string{"-fabric", ","}, "empty backend list", nil},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		f := RegisterFlags(fs, tc.spec)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		SetFabric(fabric.KindNTBRing)
		err := f.Apply()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(f.Kinds) != len(tc.kinds) {
			t.Errorf("%s: kinds %v, want %v", tc.name, f.Kinds, tc.kinds)
			continue
		}
		for i := range tc.kinds {
			if f.Kinds[i] != tc.kinds[i] {
				t.Errorf("%s: kinds %v, want %v", tc.name, f.Kinds, tc.kinds)
			}
		}
		if want := map[bool]fabric.Kind{true: f.Kind(), false: fabric.KindNTBRing}[tc.spec.Select]; Fabric() != want {
			t.Errorf("%s: selected fabric %v, want %v", tc.name, Fabric(), want)
		}
	}
	fs := flag.NewFlagSet("no-workers", flag.ContinueOnError)
	RegisterFlags(fs, FlagSpec{Fabric: "ntb-ring", NoWorkers: true})
	if fs.Lookup("j") != nil {
		t.Error("NoWorkers still registered -j")
	}
}

func TestParseHostCounts(t *testing.T) {
	got, err := ParseHostCounts("pes", "3, 16,64,", fabric.KindNTBRing)
	if err != nil || len(got) != 3 || got[0] != 3 || got[1] != 16 || got[2] != 64 {
		t.Fatalf("ParseHostCounts = %v, %v", got, err)
	}
	for list, want := range map[string]string{
		"3,x": `-pes: "x" is not a cluster size`,
		"1":   "out of range [2, 64] for the pcie-switch fabric",
		"65":  "out of range [2, 64] for the pcie-switch fabric",
		" , ": "-pes: empty sweep",
	} {
		if _, err := ParseHostCounts("pes", list, fabric.KindPCIeSwitch); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseHostCounts(%q): error %v, want one containing %q", list, err, want)
		}
	}
}
