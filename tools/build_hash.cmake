# Writes OUT, a header defining NPP_BUILD_HASH: the first 16 hex digits
# of a SHA-256 over every file under SRC_DIR (relative path, then the
# file's own SHA-256, in sorted path order). The eval cache writes it
# into each disk-entry header so a build never trusts another build's
# entries. OUT is rewritten only when the hash changes.
#
#   cmake -DSRC_DIR=<src> -DOUT=<header> -P tools/build_hash.cmake
file(GLOB_RECURSE files RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
list(SORT files)
set(acc "")
foreach(f IN LISTS files)
    file(SHA256 "${SRC_DIR}/${f}" h)
    string(APPEND acc "${f}\n${h}\n")
endforeach()
string(SHA256 digest "${acc}")
string(SUBSTRING "${digest}" 0 16 short)
set(content "#define NPP_BUILD_HASH 0x${short}ULL\n")
set(old "")
if(EXISTS "${OUT}")
    file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
    file(WRITE "${OUT}" "${content}")
endif()
