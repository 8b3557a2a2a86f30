package analysis

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches a fused multiply-add or multiply-subtract in
// `go build -gcflags=-S` output: FMADDD, FMSUBD, FNMSUBD on arm64 and
// their riscv64/loong64 forms, FMADD/FMSUB on ppc64le and s390x.
var fusedOp = regexp.MustCompile(`\bFN?M(ADD|SUB)[DS]?\b`)

// fusingArchs are the architectures whose Go backends fuse x*y + z into
// one instruction that rounds once. amd64, where every golden was
// produced, does not.
var fusingArchs = []string{"arm64", "riscv64", "loong64", "ppc64le", "s390x"}

// TestNoFusedMultiplyAdd holds virtual time and kernel results
// independent of the CPU. The Go spec lets a compiler fuse x*y + z, even
// across statements, and only an explicit float64(…) conversion of the
// product forbids it, so no syntactic check is complete: this test
// cross-compiles every SimScope package for each fusing architecture and
// reads the assembly. The toolchain builds each architecture's standard
// library from GOROOT; nothing is downloaded.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the simulation packages for five architectures; skipped in -short")
	}
	listed, err := goList("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, lp := range listed {
		if SimScope.MatchString(lp.ImportPath) {
			pkgs = append(pkgs, lp.ImportPath)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("no package matches SimScope")
	}
	for _, arch := range fusingArchs {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, pkgs...)...)
		cmd.Dir = "../.."
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if fusedOp.MatchString(line) {
				t.Errorf("GOARCH=%s fuses a multiply-add; write the product as float64(x*y): %s", arch, strings.TrimSpace(line))
			}
		}
	}
}
