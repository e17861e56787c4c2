package resolver

import (
	"testing"

	"github.com/netsecurelab/mtasts/internal/leakcheck"
)

// TestMain arms the goroutine-leak harness: the client owns a socket per
// query and the in-process dnsserver a goroutine per packet; neither may
// outlive its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
