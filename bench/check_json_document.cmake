# Checks that a bench's --json output is one JSON document: an object
# holding, under each name in KEYS, a non-empty array of row objects.
#
#   cmake -DBENCH=<bench binary> "-DKEYS=<name>;<name>" -P check_json_document.cmake
execute_process(COMMAND "${BENCH}" --json
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json exited with ${rc}")
endif()
# string(JSON) reads the first document and ignores what follows it, so
# count the documents that open at the start of a line (marked first: a
# list element holding an unmatched "[" would swallow the next one).
string(REGEX REPLACE "(^|\n)[[{]" "\\1<document>" marked "${out}")
string(REGEX MATCHALL "<document>" opened "${marked}")
list(LENGTH opened documents)
if(NOT documents EQUAL 1)
  message(FATAL_ERROR "--json output holds ${documents} top-level documents, want 1")
endif()
string(JSON type ERROR_VARIABLE err TYPE "${out}")
if(err)
  message(FATAL_ERROR "--json output is not one JSON document: ${err}")
endif()
if(NOT type STREQUAL "OBJECT")
  message(FATAL_ERROR "--json output is a JSON ${type}, want an OBJECT")
endif()
list(LENGTH KEYS want)
string(JSON have LENGTH "${out}")
if(NOT have EQUAL want)
  message(FATAL_ERROR "--json object has ${have} members, want ${want}")
endif()
foreach(key IN LISTS KEYS)
  string(JSON rows ERROR_VARIABLE err LENGTH "${out}" "${key}")
  if(err OR rows EQUAL 0)
    message(FATAL_ERROR "--json object has no rows under \"${key}\" ${err}")
  endif()
  string(JSON row_type TYPE "${out}" "${key}" 0)
  if(NOT row_type STREQUAL "OBJECT")
    message(FATAL_ERROR "\"${key}\" row 0 is a JSON ${row_type}, want an OBJECT")
  endif()
endforeach()
