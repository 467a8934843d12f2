// Package skipped is never read: the scan skips testdata directories.
package skipped

import "fixture/internal/lib"

var _ = lib.DeadVar
