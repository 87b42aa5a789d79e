package occ

import "siteselect/internal/lockmgr"

// Version returns the committed version of obj.
func (v *Validator) Version(obj lockmgr.ObjectID) int64 { return v.versions[obj] }
