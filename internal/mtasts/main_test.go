package mtasts

import (
	"testing"

	"github.com/netsecurelab/mtasts/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running:
// every policy server, fetch and coalesced fetch spawned here must be
// joined by the time its test returns.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
