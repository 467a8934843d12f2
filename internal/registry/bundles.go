package registry

// BundleRecord is one stored portable app bundle: the raw signed bytes,
// exactly as packed. The center stores bundles opaquely — signature and
// trust checks happen at push (the receiving daemon) and again at install
// (the instantiating host), never there, so a center can relay bundles
// for apps it could not itself instantiate.
type BundleRecord struct {
	Name string // bundle name = manifest app name
	Raw  []byte // signed bundle bytes (MDAB format)
}

// BundleInfo is the listing view of a stored bundle.
type BundleInfo struct {
	Name  string
	Bytes int64
}
