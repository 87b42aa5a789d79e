package pagefile

import "time"

// DefaultDiskConfig approximates a late-90s SCSI disk: ~12 ms per random
// page access.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{ReadTime: 12 * time.Millisecond, WriteTime: 12 * time.Millisecond}
}

// Contains reports whether page id is resident (pinned or not), without
// touching LRU state. No page beyond the disk's is.
func (bp *BufferPool) Contains(id PageID) bool {
	if uint(id) >= uint(len(bp.at)) {
		return false
	}
	f := bp.frame(id)
	return f != nil && !f.loading
}
