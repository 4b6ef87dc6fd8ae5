package profile

// StmtLoop names DepProfile.WriteExec's key type for the reference
// profiler in profile_test.
type StmtLoop = stmtLoop
