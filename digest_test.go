package rovista

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputDigests: the commands in testdata/output_digests.txt — three
// longitudinal runs under each fault profile, a hijack campaign and every
// experiment — print exactly the bytes whose SHA-256 is recorded there. A
// refactor that claims to change no result is checked here, not by hand.
func TestOutputDigests(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "output_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, cmd := range []string{"rovista", "experiments"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", cmd, err, out)
		}
	}
	for _, line := range strings.Split(string(want), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		digest, command, _ := strings.Cut(line, "  ")
		args := strings.Fields(command)
		out, err := exec.Command(filepath.Join(bin, args[0]), args[1:]...).Output()
		if err != nil {
			t.Errorf("%s: %v", command, err)
			continue
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: output moved\n got  %s\n want %s", command, got, digest)
		}
	}
}
